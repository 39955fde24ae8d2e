// Package fleetnet is the network control plane for the fleet
// coordinator (internal/fleet): the coordinator serves the shard-dir
// state machine over HTTP/JSON, and workers join over TCP instead of a
// shared filesystem. The server is a fencing facade over the same
// durable files the filesystem plane uses — lease, checkpoint, rate,
// per-epoch run and metadata files — so merge, crash-resume, and the
// decision journal are transport-independent, and a fleet directory
// written through this plane is byte-compatible with PR 8 directories.
//
// The package also ships the fault injector the acceptance suite runs
// the plane through: a seeded, deterministic ChaosProxy that drops,
// delays, duplicates, and reorders RPCs, partitions shards one-way or
// fully, and slow-drips response bodies, all scripted as a per-phase
// Timeline.
package fleetnet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"zmapgo/internal/hashx"
)

// Phase is one segment of a chaos timeline: from After (relative to
// proxy start) until the next phase begins, every RPC through the proxy
// is subjected to these faults. Probabilities are drawn deterministically
// from the proxy seed and the RPC's global index, never from wall clock
// or math/rand, so a timeline replays identically across runs.
type Phase struct {
	// After is the phase's activation offset from proxy start.
	After time.Duration

	// Drop is the probability an RPC is severed before reaching the
	// coordinator (the client sees a connection reset, the server
	// nothing).
	Drop float64
	// Dup is the probability an RPC is forwarded twice back-to-back —
	// the second copy's response is discarded. This is the idempotency
	// gauntlet: a duplicated result upload or commit must not
	// double-apply.
	Dup float64

	// Delay (+ a uniform draw of Jitter) holds an RPC before forwarding.
	Delay  time.Duration
	Jitter time.Duration

	// ReorderFrac of RPCs are additionally held ReorderHold, letting
	// later RPCs overtake them (checkpoint regression, stale renewals).
	ReorderFrac float64
	ReorderHold time.Duration

	// SlowBody drips the response back to the client in 4 KiB chunks
	// with this pause between chunks.
	SlowBody time.Duration

	// Partition, when non-empty, is "full" (RPC severed with no
	// forward) or "oneway" (forwarded — the server acts — but the
	// response never returns, so the client retries an already-applied
	// RPC). PartitionShard scopes it to one shard, -1 means every shard.
	Partition      string
	PartitionShard int
}

// Timeline is an ordered chaos script. Phases apply from their After
// offset until the next phase's; the last phase holds forever.
type Timeline struct {
	Phases []Phase
}

// At returns the phase active at the given elapsed time and its index.
// Before the first phase (or on an empty timeline) it returns a
// zero/pass phase with index -1.
func (t *Timeline) At(elapsed time.Duration) (Phase, int) {
	idx := -1
	for i := range t.Phases {
		if t.Phases[i].After <= elapsed {
			idx = i
		}
	}
	if idx < 0 {
		return Phase{PartitionShard: -1}, -1
	}
	return t.Phases[idx], idx
}

// ParseTimeline parses the chaos DSL: semicolon-separated phases, each
// "<offset>:<fault>,<fault>,...". Faults:
//
//	pass                    no faults (placeholder, keeps a phase valid)
//	drop=0.25               drop probability
//	dup=0.25                duplicate probability
//	delay=10ms              fixed forward delay
//	jitter=5ms              uniform extra delay on top of delay
//	reorder=0.3/40ms        fraction held for the given duration
//	slow=2ms                per-4KiB response body drip
//	partition=full          sever everything
//	partition=oneway        forward, discard response
//	partition=full@1        scope to shard 1 (@N works for both kinds)
//
// Example:
//
//	0:pass;300ms:drop=0.25,dup=0.25,delay=10ms;1s:partition=full@1;1.8s:pass
func ParseTimeline(s string) (*Timeline, error) {
	tl := &Timeline{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		offStr, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("fleetnet: phase %q: want <offset>:<faults>", part)
		}
		after, err := time.ParseDuration(strings.TrimSpace(offStr))
		if err != nil || after < 0 {
			return nil, fmt.Errorf("fleetnet: phase %q: bad offset %q", part, offStr)
		}
		ph := Phase{After: after, PartitionShard: -1}
		for _, f := range strings.Split(rest, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			if f == "pass" {
				continue
			}
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("fleetnet: phase %q: fault %q: want key=value or pass", part, f)
			}
			switch key {
			case "drop":
				if ph.Drop, err = parseFrac(val); err != nil {
					return nil, fmt.Errorf("fleetnet: drop: %w", err)
				}
			case "dup":
				if ph.Dup, err = parseFrac(val); err != nil {
					return nil, fmt.Errorf("fleetnet: dup: %w", err)
				}
			case "delay":
				if ph.Delay, err = parseDur(val); err != nil {
					return nil, fmt.Errorf("fleetnet: delay: %w", err)
				}
			case "jitter":
				if ph.Jitter, err = parseDur(val); err != nil {
					return nil, fmt.Errorf("fleetnet: jitter: %w", err)
				}
			case "slow":
				if ph.SlowBody, err = parseDur(val); err != nil {
					return nil, fmt.Errorf("fleetnet: slow: %w", err)
				}
			case "reorder":
				fracStr, holdStr, ok := strings.Cut(val, "/")
				if !ok {
					return nil, fmt.Errorf("fleetnet: reorder %q: want frac/hold", val)
				}
				if ph.ReorderFrac, err = parseFrac(fracStr); err != nil {
					return nil, fmt.Errorf("fleetnet: reorder: %w", err)
				}
				if ph.ReorderHold, err = parseDur(holdStr); err != nil {
					return nil, fmt.Errorf("fleetnet: reorder: %w", err)
				}
			case "partition":
				kind, shardStr, scoped := strings.Cut(val, "@")
				if kind != "full" && kind != "oneway" {
					return nil, fmt.Errorf("fleetnet: partition %q: want full or oneway", val)
				}
				ph.Partition = kind
				if scoped {
					n, err := strconv.Atoi(shardStr)
					if err != nil || n < 0 {
						return nil, fmt.Errorf("fleetnet: partition shard %q", shardStr)
					}
					ph.PartitionShard = n
				}
			default:
				return nil, fmt.Errorf("fleetnet: unknown fault %q", key)
			}
		}
		tl.Phases = append(tl.Phases, ph)
	}
	sort.SliceStable(tl.Phases, func(i, j int) bool {
		return tl.Phases[i].After < tl.Phases[j].After
	})
	return tl, nil
}

// String renders the timeline back into the DSL in canonical form:
// phases in activation order, faults in a fixed key order, fractions
// with minimal digits. ParseTimeline(t.String()) round-trips exactly.
func (t *Timeline) String() string {
	var phases []string
	for _, ph := range t.Phases {
		var faults []string
		if ph.Drop > 0 {
			faults = append(faults, "drop="+fmtFrac(ph.Drop))
		}
		if ph.Dup > 0 {
			faults = append(faults, "dup="+fmtFrac(ph.Dup))
		}
		if ph.Delay > 0 {
			faults = append(faults, "delay="+ph.Delay.String())
		}
		if ph.Jitter > 0 {
			faults = append(faults, "jitter="+ph.Jitter.String())
		}
		if ph.ReorderFrac > 0 {
			faults = append(faults, "reorder="+fmtFrac(ph.ReorderFrac)+"/"+ph.ReorderHold.String())
		}
		if ph.SlowBody > 0 {
			faults = append(faults, "slow="+ph.SlowBody.String())
		}
		if ph.Partition != "" {
			p := "partition=" + ph.Partition
			if ph.PartitionShard >= 0 {
				p += "@" + strconv.Itoa(ph.PartitionShard)
			}
			faults = append(faults, p)
		}
		if len(faults) == 0 {
			faults = []string{"pass"}
		}
		phases = append(phases, ph.After.String()+":"+strings.Join(faults, ","))
	}
	return strings.Join(phases, ";")
}

func parseFrac(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || v < 0 || v > 1 {
		return 0, fmt.Errorf("fraction %q: want [0,1]", s)
	}
	return v, nil
}

func parseDur(s string) (time.Duration, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil || d < 0 {
		return 0, fmt.Errorf("duration %q", s)
	}
	return d, nil
}

func fmtFrac(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Decision is what the proxy does to one RPC, fully determined by
// (seed, phase index, RPC index, phase, shard).
type Decision struct {
	// FullPartition severs the RPC without forwarding.
	FullPartition bool
	// OneWay forwards the RPC but severs the response path.
	OneWay bool
	// Drop severs the RPC without forwarding (probabilistic flavor).
	Drop bool
	// Dup forwards the RPC twice.
	Dup bool
	// Delay holds the RPC before forwarding.
	Delay time.Duration
	// SlowBody paces the response body per 4 KiB chunk.
	SlowBody time.Duration
}

// Decide is the proxy's pure decision function: the same arguments
// always yield the same Decision. n is the RPC's global arrival index;
// shard is the shard the RPC concerns (from its X-Fleet-Shard header,
// -1 when absent — an unscoped RPC is only hit by fleet-wide
// partitions).
func Decide(seed uint64, phaseIdx int, n uint64, ph Phase, shard int) Decision {
	var d Decision
	if ph.Partition != "" && (ph.PartitionShard < 0 || shard == ph.PartitionShard) {
		switch ph.Partition {
		case "full":
			d.FullPartition = true
			return d
		case "oneway":
			d.OneWay = true
		}
	}
	state := hashx.SplitMix64(seed ^ hashx.SplitMix64(uint64(phaseIdx)+1) ^ hashx.SplitMix64(n+0x5bd1e995))
	next := func() float64 {
		state = hashx.SplitMix64(state)
		return float64(state>>11) / (1 << 53)
	}
	if next() < ph.Drop {
		d.Drop = true
		return d
	}
	if next() < ph.Dup {
		d.Dup = true
	}
	d.Delay = ph.Delay
	if ph.Jitter > 0 {
		d.Delay += time.Duration(next() * float64(ph.Jitter))
	}
	if next() < ph.ReorderFrac {
		d.Delay += ph.ReorderHold
	}
	d.SlowBody = ph.SlowBody
	return d
}
