package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"zmapgo/internal/hashx"
)

// FaultKind is one class of injected worker failure.
type FaultKind string

const (
	// FaultKill SIGKILLs the worker: the crash path. The lease stops
	// renewing, the process exit is observed immediately, and the shard
	// is reclaimed and respawned from its checkpoint.
	FaultKill FaultKind = "kill"
	// FaultHang SIGSTOPs the worker and never resumes it: the hang
	// path. The process stays alive but its heartbeat goroutine is
	// frozen, so detection must come from lease-TTL staleness, after
	// which the coordinator SIGKILLs the stopped process and reclaims.
	FaultHang FaultKind = "hang"
	// FaultSlow SIGSTOPs the worker for a bounded pause shorter than
	// the lease TTL, then SIGCONTs it: the slow-worker path. A correct
	// coordinator must NOT reclaim — the lease renews again before
	// expiring.
	FaultSlow FaultKind = "slow"
)

// FaultEvent schedules one fault against one shard's current worker.
type FaultEvent struct {
	Shard int           `json:"shard"`
	Kind  FaultKind     `json:"kind"`
	After time.Duration `json:"after"` // since fleet start
	// Duration is the pause length for FaultSlow; ignored otherwise.
	Duration time.Duration `json:"duration,omitempty"`
}

func (e FaultEvent) String() string {
	s := fmt.Sprintf("%s:%d@%s", e.Kind, e.Shard, e.After)
	if e.Kind == FaultSlow {
		s += "/" + e.Duration.String()
	}
	return s
}

// FaultPlan is a deterministic schedule of worker faults, sorted by
// injection time. Plans are data, not behavior: the same plan string
// replays the same chaos, which is what makes the acceptance test
// seedable.
type FaultPlan struct {
	Events []FaultEvent `json:"events"`
}

// String renders the plan in the syntax ParseFaultPlan reads.
func (p *FaultPlan) String() string {
	if p == nil || len(p.Events) == 0 {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// sorted returns the events ordered by injection time (stable on shard).
func (p *FaultPlan) sorted() []FaultEvent {
	evs := make([]FaultEvent, len(p.Events))
	copy(evs, p.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].After < evs[j].After })
	return evs
}

// ParseFaultPlan reads a comma-separated plan:
//
//	kill:0@800ms,hang:1@1.2s,slow:2@500ms/300ms
//
// Each term is kind:shard@after, with an optional /duration suffix for
// slow faults.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return &FaultPlan{}, nil
	}
	var plan FaultPlan
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(term, ":")
		if !ok {
			return nil, fmt.Errorf("fleet: fault %q: want kind:shard@after", term)
		}
		kind := FaultKind(kindStr)
		switch kind {
		case FaultKill, FaultHang, FaultSlow:
		default:
			return nil, fmt.Errorf("fleet: fault %q: unknown kind %q (kill|hang|slow)", term, kindStr)
		}
		shardStr, afterStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("fleet: fault %q: want kind:shard@after", term)
		}
		var shard int
		if _, err := fmt.Sscanf(shardStr, "%d", &shard); err != nil || shard < 0 {
			return nil, fmt.Errorf("fleet: fault %q: bad shard %q", term, shardStr)
		}
		durStr := ""
		if i := strings.IndexByte(afterStr, '/'); i >= 0 {
			afterStr, durStr = afterStr[:i], afterStr[i+1:]
		}
		after, err := time.ParseDuration(afterStr)
		if err != nil {
			return nil, fmt.Errorf("fleet: fault %q: bad delay: %w", term, err)
		}
		ev := FaultEvent{Shard: shard, Kind: kind, After: after}
		if kind == FaultSlow {
			if durStr == "" {
				return nil, fmt.Errorf("fleet: fault %q: slow faults need /duration", term)
			}
			if ev.Duration, err = time.ParseDuration(durStr); err != nil {
				return nil, fmt.Errorf("fleet: fault %q: bad duration: %w", term, err)
			}
		} else if durStr != "" {
			return nil, fmt.Errorf("fleet: fault %q: only slow faults take /duration", term)
		}
		plan.Events = append(plan.Events, ev)
	}
	return &plan, nil
}

// RandomFaultPlan derives a deterministic chaos schedule from a seed:
// count faults spread uniformly over the window, each hitting a random
// shard with a random kind (slow pauses bounded by maxSlow). The same
// (seed, workers, count, window) always yields the same plan.
func RandomFaultPlan(seed uint64, workers, count int, window, maxSlow time.Duration) *FaultPlan {
	plan := &FaultPlan{}
	if workers <= 0 || count <= 0 || window <= 0 {
		return plan
	}
	state := hashx.SplitMix64(seed)
	next := func() uint64 {
		state = hashx.SplitMix64(state)
		return state
	}
	for i := 0; i < count; i++ {
		ev := FaultEvent{
			Shard: int(next() % uint64(workers)),
			After: time.Duration(next() % uint64(window)),
		}
		switch next() % 3 {
		case 0:
			ev.Kind = FaultKill
		case 1:
			ev.Kind = FaultHang
		default:
			ev.Kind = FaultSlow
			if maxSlow <= 0 {
				maxSlow = 200 * time.Millisecond
			}
			ev.Duration = time.Duration(1 + next()%uint64(maxSlow))
		}
		plan.Events = append(plan.Events, ev)
	}
	plan.Events = plan.sorted()
	return plan
}
