// Package health closes the loop between the receive path and the send
// rate — the scan-health subsystem the 10GigE retrospective motivates:
// past a capacity knee, pushing packets faster *loses* results, because
// the network (not the host) drops probes and responses. The engine's
// per-thread degradation (PR 1) only reacts to local transport errors;
// this package watches what the network itself says.
//
// Two mechanisms share one Controller:
//
//   - A global AIMD rate controller fed with windowed (not cumulative)
//     telemetry: when the windowed hit rate collapses relative to its
//     healthy baseline, or ICMP destination-unreachable messages spike,
//     the target rate is cut multiplicatively; after a hold-off it is
//     probed back up additively toward the configured rate. Senders
//     consult the controller's target at batch boundaries.
//
//   - Per-/16 interference quarantine: remote networks fingerprint and
//     filter scan traffic (Mazel & Strullu), so a prefix that has been
//     answering can go dark mid-scan. A previously-responsive /16 whose
//     windowed response rate stays far below its own baseline for
//     several consecutive windows is quarantined — probes stop, the
//     event is recorded for operator review — instead of burning the
//     probe budget into a black hole.
//
// Hot-path methods (NoteSent, NoteRecv, NoteUnreach, Quarantined, Rate)
// are lock-free; Tick runs the control decisions on whatever goroutine
// drives it (the engine runs one ticker per scan).
package health

import (
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"zmapgo/internal/trace"
)

// Defaults for Config fields left zero.
const (
	DefaultDecreaseFactor      = 0.5
	DefaultIncreasePerTick     = 0.01
	DefaultHoldTicks           = 4
	DefaultCollapseRatio       = 0.5
	DefaultUnreachFraction     = 0.01
	DefaultMinWindowProbes     = 50
	DefaultMinWindowResponses  = 50
	DefaultBaselineGain        = 0.3
	DefaultQuarantineThreshold = 0.15
	DefaultQuarantineMinProbes = 32
	DefaultQuarantineBadTicks  = 3
	DefaultQuarantineMinResp   = 8
	DefaultInterval            = time.Second
	DefaultCollapseWindows     = 2
	DefaultParoleAfterTicks    = 30 // ParoleAfter = 30 * Interval
	DefaultParoleMinResponses  = 4
	DefaultParoleReleaseRatio  = 0.5
)

// Config tunes the controller. The zero value of every knob takes the
// package default above; ConfiguredRate <= 0 disables the AIMD loop
// (quarantine still works), QuarantineThreshold < 0 disables quarantine.
type Config struct {
	// ConfiguredRate is the operator's packets-per-second budget — the
	// ceiling additive recovery probes back toward. <= 0 disables AIMD
	// (an unlimited-rate scan has no rate to control).
	ConfiguredRate float64

	// MinRate floors multiplicative decrease. 0 means
	// max(ConfiguredRate/64, 1).
	MinRate float64

	// Interval is the expected tick period (informational; the engine
	// drives Tick on its own ticker). 0 means 1s.
	Interval time.Duration

	// DecreaseFactor multiplies the rate on a congestion signal (0 =
	// 0.5, the classic AIMD cut).
	DecreaseFactor float64

	// IncreasePerTick is the additive recovery step per healthy tick,
	// as a fraction of ConfiguredRate (0 = 0.01: a full recovery from
	// the floor takes ~100 healthy ticks).
	IncreasePerTick float64

	// HoldTicks is how many healthy ticks to sit still after a decrease
	// before probing upward again (0 = 4).
	HoldTicks int

	// CollapseRatio: a windowed hit rate below CollapseRatio * baseline
	// is a congestion signal (0 = 0.5). The baseline is an EWMA over
	// healthy windows, so it tracks the population's real density.
	CollapseRatio float64

	// UnreachFraction: a windowed ICMP-unreachable fraction (unreach /
	// probes sent) above this is a congestion signal (0 = 0.01).
	UnreachFraction float64

	// MinWindowProbes: windows with fewer probes sent are not judged
	// (0 = 50). Prevents end-of-scan noise from whipsawing the rate.
	MinWindowProbes uint64

	// MinWindowResponses sizes the hit-rate evidence window (0 = 50):
	// the collapse judgment and the baseline EWMA only run once the
	// window is large enough that a healthy scan would be expected to
	// carry this many responses (baseline * probes sent). Internet-wide
	// hit rates are ~1%, so a fixed probe-count window holds O(0)
	// expected responses and its hit rate is Poisson noise, not signal;
	// the evidence window scales with 1/density instead.
	MinWindowResponses uint64

	// BaselineGain is the EWMA gain for the healthy-window baselines
	// (0 = 0.3).
	BaselineGain float64

	// QuarantineThreshold: a previously-responsive /16 whose windowed
	// response rate falls below QuarantineThreshold times its own
	// baseline accumulates a bad-window strike. 0 = 0.15; negative
	// disables quarantine entirely.
	QuarantineThreshold float64

	// QuarantineMinProbes: per-prefix windows accumulate across ticks
	// until they carry at least this many probes before being judged
	// (0 = 32).
	QuarantineMinProbes uint64

	// QuarantineBadTicks: consecutive bad windows before the prefix is
	// quarantined (0 = 3).
	QuarantineBadTicks int

	// QuarantineMinResponses: a prefix must have produced at least this
	// many responses before the window under judgment to count as
	// "previously responsive" (0 = 8). Never-responsive prefixes are
	// ordinary empty address space, not interference.
	QuarantineMinResponses uint64

	// CollapseWindows is how many *consecutive* collapsed hit-rate
	// evidence windows are required before the multiplicative decrease
	// fires (0 = 2). Bursty non-congestion loss (Gilbert-Elliott
	// weather) collapses isolated windows; sustained congestion
	// collapses consecutive ones. 1 restores the legacy hair-trigger
	// behavior that a single loss burst could fool.
	CollapseWindows int

	// ParoleAfter is how long a quarantined prefix waits before its
	// first parole window — a budgeted low-rate re-probe that releases
	// the prefix if it answers again (a transient blackout, not a
	// permanent null-route). 0 = 30 * Interval; negative disables
	// parole, restoring quarantine-is-forever.
	ParoleAfter time.Duration

	// ParoleInterval is the wait between failed parole attempts
	// (0 = ParoleAfter).
	ParoleInterval time.Duration

	// ParoleMinResponses is how many responses a parole window needs to
	// release the prefix (0 = 4). The re-probe budget is sized so a
	// recovered prefix would produce about twice this many at its
	// pre-quarantine response rate.
	ParoleMinResponses uint64

	// ParoleReleaseRatio: release requires the parole window's response
	// rate to reach this fraction of the prefix's pre-quarantine
	// baseline (0 = 0.5).
	ParoleReleaseRatio float64

	// Logger receives controller decisions; nil discards them.
	Logger *slog.Logger
}

func (c *Config) setDefaults() {
	if c.MinRate <= 0 && c.ConfiguredRate > 0 {
		c.MinRate = c.ConfiguredRate / 64
		if c.MinRate < 1 {
			c.MinRate = 1
		}
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		c.DecreaseFactor = DefaultDecreaseFactor
	}
	if c.IncreasePerTick <= 0 {
		c.IncreasePerTick = DefaultIncreasePerTick
	}
	if c.HoldTicks == 0 {
		c.HoldTicks = DefaultHoldTicks
	}
	if c.CollapseRatio <= 0 {
		c.CollapseRatio = DefaultCollapseRatio
	}
	if c.UnreachFraction <= 0 {
		c.UnreachFraction = DefaultUnreachFraction
	}
	if c.MinWindowProbes == 0 {
		c.MinWindowProbes = DefaultMinWindowProbes
	}
	if c.MinWindowResponses == 0 {
		c.MinWindowResponses = DefaultMinWindowResponses
	}
	if c.BaselineGain <= 0 || c.BaselineGain > 1 {
		c.BaselineGain = DefaultBaselineGain
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = DefaultQuarantineThreshold
	}
	if c.QuarantineMinProbes == 0 {
		c.QuarantineMinProbes = DefaultQuarantineMinProbes
	}
	if c.QuarantineBadTicks <= 0 {
		c.QuarantineBadTicks = DefaultQuarantineBadTicks
	}
	if c.QuarantineMinResponses == 0 {
		c.QuarantineMinResponses = DefaultQuarantineMinResp
	}
	if c.CollapseWindows <= 0 {
		c.CollapseWindows = DefaultCollapseWindows
	}
	if c.ParoleAfter == 0 {
		c.ParoleAfter = DefaultParoleAfterTicks * c.Interval
	}
	if c.ParoleInterval <= 0 {
		c.ParoleInterval = c.ParoleAfter
	}
	if c.ParoleMinResponses == 0 {
		c.ParoleMinResponses = DefaultParoleMinResponses
	}
	if c.ParoleReleaseRatio <= 0 {
		c.ParoleReleaseRatio = DefaultParoleReleaseRatio
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// Quarantine records one quarantined /16: which prefix, how much had
// been probed and answered at the moment of quarantine, when (scan
// elapsed seconds), and the parole trail — attempts, re-probe traffic,
// and release, if the prefix came back. It rides checkpoints and the
// metadata document, so parole state survives kill-and-resume.
type Quarantine struct {
	Prefix string  `json:"prefix"`     // "a.b.0.0/16"
	Index  uint32  `json:"prefix_idx"` // ip >> 16, for machine restore
	Sent   uint64  `json:"sent"`
	Recv   uint64  `json:"recv"`
	AtSecs float64 `json:"at_secs"`

	// BaseRate is the prefix's pre-quarantine response rate (recv/sent
	// at quarantine time), the yardstick parole release is judged by.
	BaseRate float64 `json:"base_rate,omitempty"`

	// Parole trail: completed re-probe attempts, the probes/responses
	// they spent, and whether (and when) the prefix was released.
	ParoleAttempts int     `json:"parole_attempts,omitempty"`
	ParoleSent     uint64  `json:"parole_sent,omitempty"`
	ParoleRecv     uint64  `json:"parole_recv,omitempty"`
	Released       bool    `json:"released,omitempty"`
	ReleasedAtSecs float64 `json:"released_at_secs,omitempty"`
}

// State is the controller's persistable state: everything a resumed scan
// needs to avoid re-learning the network's capacity or re-probing
// quarantined prefixes.
type State struct {
	RatePPS         float64      `json:"rate_pps"`
	BaselineHitRate float64      `json:"baseline_hit_rate"`
	BaselineUnreach float64      `json:"baseline_unreach"`
	Unreach         uint64       `json:"unreach_total"`
	Decreases       uint64       `json:"rate_decreases"`
	Increases       uint64       `json:"rate_increases"`
	Quarantined     []Quarantine `json:"quarantined,omitempty"`
}

const prefixes = 1 << 16

// prefixWin is the per-/16 accumulation window, owned by the Tick
// goroutine: the window spans from the recorded bases to the live
// counters and rolls forward only once it carries enough probes.
type prefixWin struct {
	sentBase uint64
	recvBase uint64
	badTicks int
}

// Controller is the scan-health state machine. All Note*/Quarantined/
// Rate methods are safe for concurrent use from hot paths; Tick and
// Restore serialize on an internal mutex.
type Controller struct {
	cfg      Config
	adaptive bool

	// journal, when set, receives one entry per control decision — the
	// flight recorder's unsampled decision stream. Called only from Tick
	// (under c.mu), so the sink needs no ordering of its own.
	journal func(trace.JEntry)

	rateBits atomic.Uint64 // math.Float64bits of the current target rate

	sentTotal    atomic.Uint64
	recvTotal    atomic.Uint64
	unreachTotal atomic.Uint64
	quarCount    atomic.Uint64
	decreases    atomic.Uint64
	increases    atomic.Uint64

	prefixSent   []atomic.Uint64 // [prefixes] probes sent per /16
	prefixRecv   []atomic.Uint64 // [prefixes] unique successes per /16
	quarantined  []atomic.Bool   // [prefixes] O(1) send-path check
	paroleCredit []atomic.Int64  // [prefixes] parole re-probe budget

	paroleGrants   atomic.Uint64
	paroleReleases atomic.Uint64

	// newPrefixes collects first-touched /16s so Tick only walks
	// prefixes the scan actually probes.
	newMu       sync.Mutex
	newPrefixes []uint32

	mu         sync.Mutex // everything below
	start      time.Time
	tickSeen   bool
	resumeHold bool // Restore requested a hold anchored at the first tick
	lastSent   uint64
	lastRecv   uint64
	lastUnr    uint64
	evSent     uint64 // hit-rate evidence window anchors; these roll
	evRecv     uint64 // only when the window carries enough evidence
	evAt       time.Time

	baseline       float64 // EWMA hit rate over healthy windows
	baselineUnr    float64 // EWMA unreach fraction over healthy windows
	holdUntil      time.Time
	collapseStreak int

	active  []uint32 // touched prefixes, tick-owned
	wins    map[uint32]*prefixWin
	parole  map[uint32]*paroleState
	records []Quarantine
}

// paroleState is the tick-owned parole machine for one quarantined /16:
// when the next re-probe window opens, and — while one is active — the
// grant size and the counter anchors it is judged against.
type paroleState struct {
	nextAt   time.Time
	active   bool
	granted  int64
	sentBase uint64
	recvBase uint64
	grantAt  time.Time
	rec      int // index into records
}

// NewController builds a controller; the scan clock starts at the first
// Tick (or now, for records written before any tick).
func NewController(cfg Config) *Controller {
	cfg.setDefaults()
	c := &Controller{
		cfg:          cfg,
		adaptive:     cfg.ConfiguredRate > 0,
		prefixSent:   make([]atomic.Uint64, prefixes),
		prefixRecv:   make([]atomic.Uint64, prefixes),
		quarantined:  make([]atomic.Bool, prefixes),
		paroleCredit: make([]atomic.Int64, prefixes),
		wins:         make(map[uint32]*prefixWin),
		parole:       make(map[uint32]*paroleState),
		start:        time.Now(),
	}
	c.storeRate(cfg.ConfiguredRate)
	return c
}

// SetJournal attaches the decision journal sink (normally
// trace.Recorder.Journal). Call before the scan starts.
func (c *Controller) SetJournal(fn func(trace.JEntry)) { c.journal = fn }

func (c *Controller) emit(e trace.JEntry) {
	if c.journal != nil {
		c.journal(e)
	}
}

// Adaptive reports whether the AIMD loop is active (a configured rate
// exists to control).
func (c *Controller) Adaptive() bool { return c.adaptive }

// MinRate is the floor the multiplicative decrease enforces, after
// defaulting.
func (c *Controller) MinRate() float64 { return c.cfg.MinRate }

// QuarantineEnabled reports whether the interference detector is active.
func (c *Controller) QuarantineEnabled() bool { return c.cfg.QuarantineThreshold > 0 }

// ParoleEnabled reports whether quarantined prefixes are periodically
// re-probed for release.
func (c *Controller) ParoleEnabled() bool {
	return c.QuarantineEnabled() && c.cfg.ParoleAfter > 0
}

func (c *Controller) storeRate(r float64) { c.rateBits.Store(math.Float64bits(r)) }

// Rate returns the current global target rate in packets/second (0 when
// AIMD is disabled). Senders divide it by the thread count and apply it
// as a cap on their local share.
func (c *Controller) Rate() float64 { return math.Float64frombits(c.rateBits.Load()) }

// NoteSent records n probes sent toward ip. Called from sender threads.
func (c *Controller) NoteSent(ip uint32, n uint64) {
	if n == 0 {
		return
	}
	p := ip >> 16
	if c.prefixSent[p].Add(n) == n {
		// First touch of this /16 (exactly one concurrent adder can
		// observe its own n as the post-add value on a zero base).
		c.newMu.Lock()
		c.newPrefixes = append(c.newPrefixes, p)
		c.newMu.Unlock()
	}
	c.sentTotal.Add(n)
}

// NoteRecv records one unique successful response from ip. Called
// concurrently from every receive worker (the sharded receive path runs
// N classification goroutines); the per-prefix and total counters are
// atomics, so no worker coordination is required.
func (c *Controller) NoteRecv(ip uint32) {
	c.prefixRecv[ip>>16].Add(1)
	c.recvTotal.Add(1)
}

// NoteUnreach records one validated ICMP destination-unreachable whose
// quoted probe targeted ip. The caller has already checked the quoted
// source address, so spoofed unreachables cannot drive the rate down.
// Like NoteRecv it is called concurrently from all receive workers.
func (c *Controller) NoteUnreach(ip uint32) {
	_ = ip // per-prefix unreach attribution is not used by the policy yet
	c.unreachTotal.Add(1)
}

// Quarantined reports whether probes to ip should be skipped.
func (c *Controller) Quarantined(ip uint32) bool {
	return c.quarantined[ip>>16].Load()
}

// TakeParole consumes one unit of the prefix's parole re-probe budget.
// The send path calls it for targets whose prefix is quarantined: true
// means this probe rides the parole budget and should be sent, false
// means skip as usual. Lock-free; called per-probe from sender threads.
func (c *Controller) TakeParole(ip uint32) bool {
	p := ip >> 16
	if c.paroleCredit[p].Load() <= 0 {
		return false
	}
	return c.paroleCredit[p].Add(-1) >= 0
}

// ParoleGrants counts parole windows opened; ParoleReleases counts
// quarantined prefixes released after answering their parole probes.
func (c *Controller) ParoleGrants() uint64 { return c.paroleGrants.Load() }

// ParoleReleases counts prefixes released from quarantine.
func (c *Controller) ParoleReleases() uint64 { return c.paroleReleases.Load() }

// QuarantineCount returns how many /16s are quarantined.
func (c *Controller) QuarantineCount() uint64 { return c.quarCount.Load() }

// Unreach returns the cumulative validated unreachable count.
func (c *Controller) Unreach() uint64 { return c.unreachTotal.Load() }

// Decreases and Increases count AIMD rate adjustments.
func (c *Controller) Decreases() uint64 { return c.decreases.Load() }

// Increases counts additive recovery steps taken.
func (c *Controller) Increases() uint64 { return c.increases.Load() }

// Tick runs one control-loop evaluation: the quarantine pass over every
// active prefix, then the global AIMD decision for the window since the
// previous tick. The engine calls it on its health ticker.
func (c *Controller) Tick(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.start.IsZero() {
		c.start = now
	}
	if !c.tickSeen {
		// Anchor the evidence clock one interval back so the first
		// window is judgeable immediately (it spans the whole pre-tick
		// scan), while later windows measure real elapsed time. State
		// restored before the scan started (resume hold, parole waits)
		// is anchored here too, on the tick clock.
		c.tickSeen = true
		c.evAt = now.Add(-c.cfg.Interval)
		if c.resumeHold {
			c.resumeHold = false
			c.holdUntil = now.Add(time.Duration(c.cfg.HoldTicks) * c.cfg.Interval)
		}
		for _, ps := range c.parole {
			if ps.nextAt.IsZero() {
				ps.nextAt = now.Add(c.cfg.ParoleAfter)
			}
		}
	}

	// Fold newly-touched prefixes into the active list.
	c.newMu.Lock()
	if len(c.newPrefixes) > 0 {
		c.active = append(c.active, c.newPrefixes...)
		c.newPrefixes = c.newPrefixes[:0]
	}
	c.newMu.Unlock()

	if c.QuarantineEnabled() {
		c.quarantinePass(now)
		if c.ParoleEnabled() {
			c.parolePass(now)
		}
	}
	if c.adaptive {
		c.aimdPass(now)
	} else {
		// Keep the window anchors moving so enabling AIMD mid-flight
		// (future) or state snapshots stay coherent.
		c.lastSent = c.sentTotal.Load()
		c.lastRecv = c.recvTotal.Load()
		c.lastUnr = c.unreachTotal.Load()
	}
}

// quarantinePass judges each active /16's accumulated window against the
// prefix's own baseline response rate. Windows roll forward only when
// they carry enough probes, so sparse prefixes accumulate across ticks
// instead of being judged on noise.
func (c *Controller) quarantinePass(now time.Time) {
	cfg := &c.cfg
	for _, p := range c.active {
		if c.quarantined[p].Load() {
			continue
		}
		w := c.wins[p]
		if w == nil {
			w = &prefixWin{}
			c.wins[p] = w
		}
		sent := c.prefixSent[p].Load()
		recv := c.prefixRecv[p].Load()
		wSent := sent - w.sentBase
		if wSent < cfg.QuarantineMinProbes {
			continue // window not full yet; keep accumulating
		}
		wRecv := recv - w.recvBase
		responsive := w.recvBase >= cfg.QuarantineMinResponses && w.sentBase > 0
		if responsive {
			baseRate := float64(w.recvBase) / float64(w.sentBase)
			if float64(wSent)*baseRate < float64(cfg.QuarantineMinResponses) {
				// Not enough evidence yet: at this prefix's density the
				// window would be expected to hold fewer responses than
				// the judgment needs — keep accumulating.
				continue
			}
			if float64(wRecv) < cfg.QuarantineThreshold*baseRate*float64(wSent) {
				w.badTicks++
			} else {
				w.badTicks = 0
			}
			if w.badTicks >= cfg.QuarantineBadTicks {
				c.quarantined[p].Store(true)
				c.quarCount.Add(1)
				q := Quarantine{
					Prefix:   fmt.Sprintf("%d.%d.0.0/16", byte(p>>8), byte(p)),
					Index:    p,
					Sent:     sent,
					Recv:     recv,
					AtSecs:   now.Sub(c.start).Seconds(),
					BaseRate: baseRate,
				}
				c.records = append(c.records, q)
				if c.ParoleEnabled() {
					c.parole[p] = &paroleState{
						nextAt: now.Add(cfg.ParoleAfter),
						rec:    len(c.records) - 1,
					}
				}
				c.emit(trace.JEntry{
					Kind: trace.JQuarantine, Prefix: q.Prefix,
					WindowSent: wSent, WindowRecv: wRecv, Baseline: baseRate,
				})
				cfg.Logger.Warn("quarantining interfered prefix",
					"prefix", q.Prefix, "sent", sent, "recv", recv,
					"baseline_rate", baseRate)
				continue
			}
		}
		// Roll the window forward.
		w.sentBase, w.recvBase = sent, recv
	}
}

// parolePass drives the quarantine-release machine. A quarantined /16 is
// not abandoned forever: after ParoleAfter it gets a small re-probe
// budget (credits the send path consumes via TakeParole). If the parole
// window's responses reach ParoleMinResponses and ParoleReleaseRatio of
// the prefix's pre-quarantine rate, the blackout was transient and the
// prefix is released; otherwise the attempt is logged and the next one
// waits ParoleInterval.
func (c *Controller) parolePass(now time.Time) {
	cfg := &c.cfg
	for p, ps := range c.parole {
		rec := &c.records[ps.rec]
		if !ps.active {
			if now.Before(ps.nextAt) {
				continue
			}
			// Open a parole window: size the budget so a recovered
			// prefix would produce about 2x ParoleMinResponses at its
			// pre-quarantine response rate, bounded to one /16's worth.
			grant := int64(4 * cfg.QuarantineMinProbes)
			if rec.BaseRate > 0 {
				if need := int64(2 * float64(cfg.ParoleMinResponses) / rec.BaseRate); need > grant {
					grant = need
				}
			}
			if grant > 1<<16 {
				grant = 1 << 16
			}
			ps.active = true
			ps.granted = grant
			ps.sentBase = c.prefixSent[p].Load()
			ps.recvBase = c.prefixRecv[p].Load()
			ps.grantAt = now
			c.paroleCredit[p].Store(grant)
			c.paroleGrants.Add(1)
			c.emit(trace.JEntry{
				Kind: trace.JParoleGrant, Prefix: rec.Prefix,
				WindowSent: uint64(grant), Index: rec.ParoleAttempts + 1,
			})
			cfg.Logger.Info("parole window opened",
				"prefix", rec.Prefix, "budget", grant, "attempt", rec.ParoleAttempts+1)
			continue
		}
		sent := c.prefixSent[p].Load() - ps.sentBase
		recv := c.prefixRecv[p].Load() - ps.recvBase
		if recv >= cfg.ParoleMinResponses &&
			(sent == 0 || float64(recv) >= cfg.ParoleReleaseRatio*rec.BaseRate*float64(sent)) {
			// The prefix answers again at a healthy rate: release it.
			c.paroleCredit[p].Store(0)
			c.quarantined[p].Store(false)
			c.quarCount.Add(^uint64(0))
			c.paroleReleases.Add(1)
			rec.ParoleAttempts++
			rec.ParoleSent += sent
			rec.ParoleRecv += recv
			rec.Released = true
			rec.ReleasedAtSecs = now.Sub(c.start).Seconds()
			// Restart the interference window from the live counters so
			// stale pre-blackout history cannot instantly re-strike.
			if w := c.wins[p]; w != nil {
				w.sentBase = c.prefixSent[p].Load()
				w.recvBase = c.prefixRecv[p].Load()
				w.badTicks = 0
			}
			delete(c.parole, p)
			c.emit(trace.JEntry{
				Kind: trace.JParoleRelease, Prefix: rec.Prefix,
				WindowSent: sent, WindowRecv: recv, Baseline: rec.BaseRate,
			})
			cfg.Logger.Info("parole release: prefix recovered",
				"prefix", rec.Prefix, "parole_sent", sent, "parole_recv", recv)
			continue
		}
		budgetSpent := c.paroleCredit[p].Load() <= 0 && sent >= uint64(ps.granted)
		if (budgetSpent && now.Sub(ps.grantAt) >= 2*cfg.Interval) ||
			now.Sub(ps.grantAt) >= cfg.ParoleInterval {
			// Failed attempt: the budget went out (plus settle time for
			// stragglers) or the window timed out. Close it and wait.
			c.paroleCredit[p].Store(0)
			ps.active = false
			ps.nextAt = now.Add(cfg.ParoleInterval)
			rec.ParoleAttempts++
			rec.ParoleSent += sent
			rec.ParoleRecv += recv
			c.emit(trace.JEntry{
				Kind: trace.JParoleFail, Prefix: rec.Prefix,
				WindowSent: sent, WindowRecv: recv, Index: rec.ParoleAttempts,
			})
		}
	}
}

// aimdPass evaluates the windows since the previous judgment and moves
// the target rate. Two windows run at different cadences:
//
//   - the fast window (MinWindowProbes) carries the ICMP-unreachable
//     signal — a router shedding load emits unreachables immediately,
//     so even a small window is meaningful evidence;
//   - the hit-rate evidence window (MinWindowResponses) carries the
//     collapse signal and the baseline EWMA. A windowed hit rate is
//     only signal once the window is large enough that a healthy scan
//     would be expected to produce MinWindowResponses responses;
//     judged earlier, a ~1% hit-rate scan reads Poisson noise as
//     collapse and spirals to the rate floor.
func (c *Controller) aimdPass(now time.Time) {
	cfg := &c.cfg
	sent := c.sentTotal.Load()
	recv := c.recvTotal.Load()
	unr := c.unreachTotal.Load()
	dSent := sent - c.lastSent
	dRecv := recv - c.lastRecv
	dUnr := unr - c.lastUnr
	if dSent < cfg.MinWindowProbes {
		return // too quiet to judge; keep the anchors where they are
	}
	c.lastSent, c.lastRecv, c.lastUnr = sent, recv, unr

	unrFrac := float64(dUnr) / float64(dSent)
	if unrFrac > cfg.UnreachFraction && unrFrac > 3*c.baselineUnr {
		// A congested window must not leak into the hit-rate evidence.
		c.evSent, c.evRecv, c.evAt = sent, recv, now
		c.collapseStreak = 0
		c.decrease(now, "unreach_spike", unrFrac, dSent, dRecv, 0)
		return
	}

	evSent := sent - c.evSent
	evRecv := recv - c.evRecv
	enough := false
	if c.baseline > 0 {
		enough = float64(evSent)*c.baseline >= float64(cfg.MinWindowResponses)
	} else {
		// No baseline yet: learn one from the responses themselves, so
		// the first estimate carries the same evidence as later ones.
		enough = evRecv >= cfg.MinWindowResponses
	}
	// Evidence windows are judged on *measured* elapsed time, never an
	// assumed tick cadence: a clump of jittered ticks would otherwise
	// judge windows far shorter than the interval the thresholds were
	// tuned for, reading scheduling noise as collapse.
	if enough && now.Sub(c.evAt) >= cfg.Interval {
		hitRate := float64(evRecv) / float64(evSent)
		c.evSent, c.evRecv, c.evAt = sent, recv, now
		if c.baseline > 0 && hitRate < cfg.CollapseRatio*c.baseline {
			// Collapse evidence must persist: one bad window is weather
			// (a Gilbert-Elliott loss burst, a transient blackout);
			// CollapseWindows consecutive ones are congestion. Either
			// way a collapsed window never feeds the healthy baseline.
			c.collapseStreak++
			if c.collapseStreak >= cfg.CollapseWindows {
				c.collapseStreak = 0
				c.decrease(now, "hit_rate_collapse", unrFrac, evSent, evRecv, hitRate)
			}
			return
		}
		c.collapseStreak = 0
		g := cfg.BaselineGain
		if c.baseline == 0 {
			c.baseline = hitRate
		} else {
			c.baseline += g * (hitRate - c.baseline)
		}
	}

	// Healthy fast window: fold the unreachable baseline, then (after
	// the post-decrease hold) probe back toward the configured rate.
	c.baselineUnr += cfg.BaselineGain * (unrFrac - c.baselineUnr)
	if !now.After(c.holdUntil) {
		return
	}
	if rate := c.Rate(); rate < cfg.ConfiguredRate {
		next := rate + cfg.IncreasePerTick*cfg.ConfiguredRate
		if next > cfg.ConfiguredRate {
			next = cfg.ConfiguredRate
		}
		c.storeRate(next)
		c.increases.Add(1)
		c.emit(trace.JEntry{
			Kind: trace.JRateIncrease, RatePPS: next,
			WindowSent: dSent, WindowRecv: dRecv, Baseline: c.baseline,
		})
	}
}

// decrease applies at most one multiplicative cut per hold period. The
// hold is wall-clock (HoldTicks * Interval) and is NOT re-armed by
// suppressed signals, so a sustained unreachable storm cuts the rate
// once per period — stepping down, never spiraling — and the floor is
// always MinRate.
func (c *Controller) decrease(now time.Time, reason string, unrFrac float64, wSent, wRecv uint64, hitRate float64) {
	cfg := &c.cfg
	if now.Before(c.holdUntil) {
		cfg.Logger.Debug("congestion signal suppressed inside hold",
			"reason", reason, "hold_remaining", c.holdUntil.Sub(now))
		return
	}
	rate := c.Rate()
	next := rate * cfg.DecreaseFactor
	if next < cfg.MinRate {
		next = cfg.MinRate
	}
	if next != rate {
		c.storeRate(next)
		c.decreases.Add(1)
		c.emit(trace.JEntry{
			Kind: trace.JRateDecrease, Reason: reason, RatePPS: next,
			WindowSent: wSent, WindowRecv: wRecv,
			UnreachFrac: unrFrac, HitRate: hitRate, Baseline: c.baseline,
		})
		cfg.Logger.Warn("congestion signal; decreasing rate",
			"reason", reason, "rate_pps", next,
			"window_unreach_frac", unrFrac,
			"baseline_hit_rate", c.baseline)
	}
	c.holdUntil = now.Add(time.Duration(cfg.HoldTicks) * cfg.Interval)
}

// QuarantineRecords returns a copy of the quarantine log.
func (c *Controller) QuarantineRecords() []Quarantine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Quarantine(nil), c.records...)
}

// Snapshot captures the persistable controller state for checkpoints
// and metadata.
func (c *Controller) Snapshot() *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &State{
		RatePPS:         c.Rate(),
		BaselineHitRate: c.baseline,
		BaselineUnreach: c.baselineUnr,
		Unreach:         c.unreachTotal.Load(),
		Decreases:       c.decreases.Load(),
		Increases:       c.increases.Load(),
		Quarantined:     append([]Quarantine(nil), c.records...),
	}
}

// Restore loads state from a checkpoint written by a previous run, so a
// resumed scan neither re-learns the safe rate nor re-probes prefixes
// already found interfered. Call before the scan starts.
func (c *Controller) Restore(st *State) {
	if st == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.adaptive && st.RatePPS > 0 {
		r := st.RatePPS
		if r < c.cfg.MinRate {
			r = c.cfg.MinRate
		}
		if r > c.cfg.ConfiguredRate {
			r = c.cfg.ConfiguredRate
		}
		c.storeRate(r)
		// Resume cautiously: hold before probing upward again (the
		// hold is anchored when the first tick supplies the clock).
		c.resumeHold = true
	}
	c.baseline = st.BaselineHitRate
	c.baselineUnr = st.BaselineUnreach
	for _, q := range st.Quarantined {
		p := q.Index % prefixes
		if q.Released {
			// Released prefixes stay released; keep the record so the
			// parole trail survives into this run's metadata.
			c.records = append(c.records, q)
			continue
		}
		if !c.quarantined[p].Load() {
			c.quarantined[p].Store(true)
			c.quarCount.Add(1)
			c.records = append(c.records, q)
			if c.ParoleEnabled() {
				// Parole scheduling resumes with the scan: the wait
				// restarts (anchored at the first tick) rather than
				// crediting downtime as served.
				c.parole[p] = &paroleState{rec: len(c.records) - 1}
			}
		}
	}
}
