// Package core is the scan engine: it wires target generation (cyclic),
// sharding, probe modules, rate limiting, response validation,
// deduplication, and the four output streams into ZMap's send/receive
// architecture.
//
// Concurrency model: N sender goroutines each own a disjoint subshard
// of the cyclic permutation and share nothing per probe; they add to
// the book's atomic counters once per batch (see sendLoop). The
// receive side mirrors that sharding (see recv.go): a dispatcher drains
// the transport and fans frames out to RecvWorkers workers by a flow
// hash over (source IP, source port), so each worker owns a private
// dedup shard, latency-histogram shard, and flight-recorder ring shard
// with no locks on the per-frame path; one merge writer drains the
// per-worker result buffers into the output stream. The main goroutine
// waits for senders, then holds the receive side open through a
// cooldown window for stragglers. RecvWorkers=1 (the default) is the
// classic single-receiver architecture.
//
// The engine is stateless per target: probes carry validator-derived
// fields, so the receiver needs no probe table. Configuration, data,
// metadata and status updates are kept on separate streams (§5).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/cyclic"
	"zmapgo/internal/dedup"
	"zmapgo/internal/health"
	"zmapgo/internal/metrics"
	"zmapgo/internal/monitor"
	"zmapgo/internal/output"
	"zmapgo/internal/packet"
	"zmapgo/internal/probe"
	"zmapgo/internal/ratelimit"
	"zmapgo/internal/shard"
	"zmapgo/internal/target"
	"zmapgo/internal/trace"
	"zmapgo/internal/validate"
)

// Version is reported in scan metadata. Per §5's release-discipline
// lesson, it follows semantic versioning and changes with every release.
const Version = "1.5.2"

// DefaultProbeModule is the module a Config with no ProbeModule runs.
const DefaultProbeModule = "tcp_synscan"

// Transport is the wire the scanner sends probes into and receives
// responses from. netsim.Link implements it for the simulated Internet; a
// raw-socket implementation would satisfy it on a real network. Batches
// are the contract in both directions (§4.3's sendmmsg path and its
// recvmmsg mirror); a single frame is a batch of one.
//
// SendBatch attempts the frames in order and returns how many were
// accepted: frames[:sent] are on the wire; when err is non-nil,
// frames[sent] is the attempt that failed and frames[sent+1:] were not
// attempted. The transport must not retain the frame slices after
// returning — senders re-patch them in place for the next batch. Errors
// that implement Transient() bool, or that wrap a retryable errno (see
// IsTransientSendError), are retried under the Config.Retries/Backoff
// policy; anything else is fatal to the sender thread and triggers
// supervision.
//
// The engine blocks on Recv for the first frame of a train and moves the
// rest — up to len(dst) already-queued frames — out through RecvBatch
// without blocking, amortizing the per-wakeup costs (clock reads,
// channel operations) across the train. It calls Release exactly once
// per frame drawn from either, after it has finished reading it, so a
// transport with pooled receive buffers can recycle them.
type Transport interface {
	SendBatch(frames [][]byte) (sent int, err error)
	Recv() <-chan []byte
	RecvBatch(dst [][]byte) int
	Release(frame []byte)
	Stats() (sent, received, dropped uint64)
}

// The three optional extensions Transport absorbed. The frozen bench/
// still names them; they go with the next [benchmark] PR.
type (
	BatchTransport = Transport
	BatchReceiver  = Transport
	FrameReleaser  = Transport
)

// Config describes one scan. Zero values get ZMap's defaults where a
// default exists; Validate reports what cannot be defaulted.
type Config struct {
	// ProbeModule is a registry name: tcp_synscan, icmp_echoscan, udp.
	ProbeModule string

	// Targets: eligible addresses (allowlist minus blocklist) and ports.
	Constraint *target.Constraint
	Ports      *target.PortSet

	// Seed fixes the permutation (generator and offset); shards of the
	// same scan must share it. Zero means "derive from entropy" — pass
	// an explicit seed for reproducible scans.
	Seed int64

	// Sharding.
	Shards     int // total shards (machines), default 1
	ShardIndex int // this machine's shard, default 0
	Threads    int // sender goroutines, default 1

	// Rate is the aggregate packets-per-second budget (0 = unlimited).
	Rate float64

	// BatchSize is how many frames a sender thread renders into its
	// preallocated ring before flushing them to the transport in one
	// SendBatch call. 0 means the default of 64; 1 degenerates to
	// per-probe sends with unchanged semantics. Values below
	// ProbesPerTarget are raised to it so a target's probes never split
	// across batches.
	BatchSize int

	// RecvWorkers is how many sharded receive workers process inbound
	// frames. 0 means the default of 1 — the classic single receive
	// thread; values round up to a power of two (the flow-hash fanout
	// masks, not mods) and are capped at 64. The worker count is an
	// execution detail, not a scan parameter: it is absent from the
	// checkpoint fingerprint, and a scan may resume with a different
	// value — dedup state re-partitions by flow hash on restore.
	RecvWorkers int

	// ProbesPerTarget sends each probe k times (ZMap --probes).
	ProbesPerTarget int

	// MaxTargets caps targets probed by this shard (0 = no cap). The
	// multiport design tracks (IP, port) targets, not hosts: a "max
	// hosts" option is no longer expressible without extra state (§4.1).
	MaxTargets uint64

	// Cooldown is how long to keep receiving after sending completes.
	// The cooldown is quiescence-based: it ends once no response has
	// arrived for a full Cooldown, so a quiet scan exits after exactly
	// Cooldown while straggler trains keep the receiver open longer.
	Cooldown time.Duration

	// CooldownMax bounds the adaptive cooldown extension: however many
	// stragglers keep arriving, the cooldown phase never exceeds this.
	// 0 means 4x Cooldown; negative means exactly Cooldown (the fixed
	// legacy behavior).
	CooldownMax time.Duration

	// MaxRuntime stops sending after this duration (0 = no limit); the
	// cooldown still runs afterward. Mirrors ZMap's --max-runtime.
	MaxRuntime time.Duration

	// Retries is the per-probe retry budget for transient transport
	// errors (ENOBUFS and friends). 0 means the default of 10; negative
	// disables retries. Exhausting the budget drops the probe (counted
	// as send_drops, never as sent) and the scan moves on, matching
	// ZMap's give-up-after-10 ENOBUFS behavior.
	Retries int

	// Backoff is the initial sleep between retries, doubled per attempt
	// and capped at 64x (0 = 1ms default). Sleeps run on Clock, so
	// simulated-clock tests retry instantly.
	Backoff time.Duration

	// MaxSenderRestarts bounds supervised restarts per sender thread
	// after a panic or fatal transport error. 0 means the default of 2;
	// negative disables restarts. A thread that exhausts the budget
	// aborts, and Run returns ErrSenderAborted after the cooldown.
	MaxSenderRestarts int

	// Resume restores an interrupted scan from a checkpoint snapshot
	// (see internal/checkpoint). The snapshot's configuration fingerprint
	// must match this scan's — New fails hard on any mismatch, because a
	// resumed scan with a different permutation is silently wrong. When
	// Seed is zero it is adopted from the snapshot; everything else must
	// be configured identically. Resume restores per-thread progress, the
	// dedup sliding window when the snapshot carries one, and the health
	// controller's learned state.
	Resume *checkpoint.Snapshot

	// CheckpointPath, when non-empty, makes the scan crash-safe: a
	// snapshot is written atomically to this path every
	// CheckpointInterval (default 5s) while the scan runs, and a final
	// exact snapshot is written when the scan finishes or is gracefully
	// stopped. Periodic snapshots round still-running threads' progress
	// down by one element, so a crash-resume re-probes at most
	// Threads elements (at-least-once); the final snapshot is exact
	// (exactly-once).
	CheckpointPath     string
	CheckpointInterval time.Duration

	// AdaptiveRate enables the closed-loop global rate controller: the
	// scan-health subsystem watches windowed hit rate and ICMP
	// destination-unreachable telemetry from the receive path and cuts
	// the aggregate send rate multiplicatively past a congestion signal,
	// then recovers additively toward Rate. Requires Rate > 0 (an
	// unlimited scan has no rate to control).
	AdaptiveRate bool

	// MinRate floors the adaptive controller's multiplicative decrease
	// (0 = Rate/64, at least 1 pps).
	MinRate float64

	// QuarantineThreshold enables per-/16 interference quarantine: a
	// previously-responsive prefix whose windowed response rate falls
	// below this fraction of its own baseline for several consecutive
	// health ticks is quarantined — remaining probes to it are skipped
	// and the event is recorded in metadata. 0 leaves quarantine at the
	// health default (0.15) when the health subsystem is on; negative
	// disables quarantine. The health subsystem runs iff AdaptiveRate is
	// set or QuarantineThreshold > 0.
	QuarantineThreshold float64

	// HealthInterval is the health controller's tick period (0 = 1s).
	// Tests shorten it to drive the control loop quickly.
	HealthInterval time.Duration

	// Health optionally overrides the derived health controller
	// configuration wholesale (tests tuning windows and gains). When
	// non-nil it is used as-is except that ConfiguredRate, MinRate,
	// QuarantineThreshold, Interval, and Logger are still filled from
	// the fields above when zero.
	Health *health.Config

	// DedupWindow sizes the sliding window (0 = ZMap default 10^6;
	// negative disables dedup).
	DedupWindow int

	// Probe construction.
	SourceIP        uint32
	SourceMAC       packet.MAC
	GatewayMAC      packet.MAC
	SourcePortBase  uint16 // default 32768
	SourcePortCount uint16 // default 256
	OptionLayout    packet.OptionLayout
	RandomIPID      bool // 2024 default behavior when true
	TTL             byte

	// Output streams.
	Results      output.Writer // required (use CountingWriter to discard)
	StatusWriter io.Writer     // optional status stream (see StatusFormat)
	Logger       *slog.Logger  // optional; defaults to a no-op logger
	MetadataOut  io.Writer     // optional end-of-scan JSON

	// StatusFormat selects the status stream encoding: "csv" (default,
	// ZMap's --status-updates-file line format) or "json" (one object
	// per tick, carrying per-thread rates, hit rate, and send-latency
	// quantiles the CSV cannot).
	StatusFormat string

	// StatusCSVHeader emits the CSV column header before the first
	// status row (ZMap compatibility). Ignored for JSON.
	StatusCSVHeader bool

	// StatusInterval is the tick period of the status stream (0 = 1s).
	// Tests shorten it to observe multiple ticks quickly.
	StatusInterval time.Duration

	// Metrics receives every engine metric: the scan's counts (see
	// counts.go), plus send/backoff/validate latency histograms and
	// rate-limiter wait time. Nil creates a private registry (reachable
	// via Scanner.Registry). Pass a registry that outlives the scan to
	// keep one /metrics page across several: each scan rebinds every
	// zmapgo_* series to itself, so the page describes the latest one.
	Metrics *metrics.Registry

	// TraceSampleEvery tunes the flight recorder's probe-lifecycle
	// sampling: 1 in N targets is traced through the per-shard event
	// rings (0 = default 256, rounded up to a power of two; 1 traces
	// every target; negative disables probe sampling — the controller
	// decision journal always stays on). The recorder itself is
	// always-on and bounded; see Scanner.Trace.
	TraceSampleEvery int

	// TraceRingSize is the flight recorder's per-shard event capacity
	// (0 = default 8192, rounded up to a power of two). The retained
	// window is the newest TraceRingSize events per sender thread plus
	// the receive loop.
	TraceRingSize int

	// Clock is for tests; nil uses the wall clock.
	Clock ratelimit.Clock
}

func (c *Config) setDefaults() {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.ProbesPerTarget == 0 {
		c.ProbesPerTarget = 1
	}
	if c.Cooldown == 0 {
		c.Cooldown = 8 * time.Second
	}
	if c.CooldownMax == 0 {
		c.CooldownMax = 4 * c.Cooldown
	} else if c.CooldownMax < c.Cooldown {
		c.CooldownMax = c.Cooldown
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.Retries == 0 {
		c.Retries = 10
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Backoff == 0 {
		c.Backoff = time.Millisecond
	}
	if c.MaxSenderRestarts == 0 {
		c.MaxSenderRestarts = 2
	} else if c.MaxSenderRestarts < 0 {
		c.MaxSenderRestarts = 0
	}
	if c.SourcePortBase == 0 {
		c.SourcePortBase = 32768
	}
	if c.SourcePortCount == 0 {
		c.SourcePortCount = 256
	}
	if c.TTL == 0 {
		c.TTL = packet.DefaultProbeTTL
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Clock == nil {
		c.Clock = ratelimit.RealClock{}
	}
	if c.ProbeModule == "" {
		c.ProbeModule = DefaultProbeModule
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 5 * time.Second
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	} else if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	if c.RecvWorkers < 1 {
		c.RecvWorkers = 1
	} else if c.RecvWorkers > 64 {
		c.RecvWorkers = 64
	}
	c.RecvWorkers = ceilPow2(c.RecvWorkers)
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Constraint == nil {
		return errors.New("core: Constraint is required")
	}
	if c.Ports == nil || c.Ports.Len() == 0 {
		return errors.New("core: Ports is required")
	}
	if c.Results == nil {
		return errors.New("core: Results writer is required")
	}
	if c.ShardIndex < 0 || c.Shards <= c.ShardIndex {
		return fmt.Errorf("core: shard index %d outside [0, %d)", c.ShardIndex, c.Shards)
	}
	if _, err := probe.Lookup(c.ProbeModule); err != nil {
		return err
	}
	if c.AdaptiveRate && c.Rate <= 0 {
		return errors.New("core: AdaptiveRate requires a configured Rate")
	}
	return nil
}

// Fingerprint pins every input that decides which (IP, port) the i-th
// permutation element maps to, after defaulting. Resume verifies against
// it, every snapshot embeds it, and a fleet coordinator computes each
// shard's from the same Config. The scan path plans pizza shards only;
// the mode stays a field so that older checkpoints verify.
func (c Config) Fingerprint() checkpoint.Fingerprint {
	c.setDefaults()
	return checkpoint.Fingerprint{
		Seed:            c.Seed,
		Shards:          c.Shards,
		ShardIndex:      c.ShardIndex,
		Threads:         c.Threads,
		ShardMode:       shard.Pizza.String(),
		ProbeModule:     c.ProbeModule,
		Ports:           c.Ports.String(),
		ProbesPerTarget: c.ProbesPerTarget,
		TargetsDigest:   c.Constraint.Digest(),
	}
}

// healthEnabled reports whether the scan-health subsystem runs at all.
func (c *Config) healthEnabled() bool {
	return c.AdaptiveRate || c.QuarantineThreshold > 0
}

// Scanner executes one scan.
type Scanner struct {
	cfg       Config
	module    probe.Module
	transport Transport
	space     *cyclic.Space
	cycle     cyclic.Cycle
	probeCtx  probe.Context   // the receive path's: its validator counts every word
	renderCtx probe.Context   // the renderer's: the same but for an uncounted validator
	renderer  *probe.Renderer // shared by sender threads; holds no mutable state
	counts    counts          // the one book every reported number is read from
	progress  []atomic.Uint64
	start     time.Time

	// Crash-safety state. fingerprint identifies the permutation this
	// scan walks; threadDone marks senders whose subshard is complete
	// (their progress needs no conservative rounding in periodic
	// checkpoints); runs/firstStart/prevSecs carry wall-clock accounting
	// across resumed runs.
	fingerprint checkpoint.Fingerprint
	threadDone  []atomic.Bool
	runs        int
	firstStart  time.Time
	prevSecs    float64
	phaseNow    atomic.Value // string; read by the checkpoint goroutine

	// Scan health: the closed-loop controller (nil when disabled), and
	// the mutex serializing result writes against checkpoint-time
	// flushes. recvPipe is the sharded receive pipeline (see recv.go),
	// built in New so checkpoint restore can partition dedup keys into
	// its shards, started by recvLoop.
	health         *health.Controller
	resultsMu      sync.Mutex
	resultsFailed  bool // a result write has failed and been logged; under resultsMu
	recvPipe       *recvPipeline
	cooldownActual time.Duration // set by the Run goroutine after cooldown

	// Graceful shutdown: Stop closes stopCh (once), which cancels the
	// send side only — cooldown, drain, output flush, and the final
	// checkpoint still run.
	stopCh        chan struct{}
	stopOnce      sync.Once
	stopRequested atomic.Bool

	// rateCapBits is an externally imposed aggregate rate cap (float64
	// bits; 0 = none), distinct from both the configured Rate and the
	// health controller's target. See SetRateCap.
	rateCapBits atomic.Uint64

	// Flight recorder (always on, bounded): sender thread t writes ring
	// shard t, receive worker w writes shard Threads+w, the transport
	// fault bridge writes shard Threads+RecvWorkers, and the
	// controller/lifecycle paths write the decision journal.
	trace *trace.Recorder

	// Instrumentation (see Config.Metrics). Histograms are sharded per
	// sender thread so hot-path records never contend.
	registry   *metrics.Registry
	sendLat    *metrics.Histogram // per-attempt transport.Send latency
	backoffLat *metrics.Histogram // retry backoff delay
	recvLat    *metrics.Histogram // receive→validate latency
	rlWait     *metrics.Histogram // time blocked in the rate limiter

	// Lifecycle phases (generation, send, cooldown, drain, done):
	// appended by the Run goroutine, summarized into Metadata.Phases.
	phases     []output.PhaseTiming
	curPhase   string
	curPhaseAt time.Time
}

// markPhase closes the current lifecycle phase, opens the next, and
// logs the transition — §5's status/log stream carries the same events
// the metadata document later summarizes. An empty name just closes.
func (s *Scanner) markPhase(name string) {
	now := time.Now()
	if s.curPhase != "" {
		s.phases = append(s.phases, output.PhaseTiming{
			Phase:        s.curPhase,
			Start:        s.curPhaseAt,
			DurationSecs: now.Sub(s.curPhaseAt).Seconds(),
		})
	}
	s.curPhase, s.curPhaseAt = name, now
	if name != "" {
		s.phaseNow.Store(name)
		s.trace.Journal(trace.JEntry{Kind: trace.JPhase, Phase: name})
		s.cfg.Logger.Info("scan phase", "phase", name)
	}
}

// New prepares a scanner: it finalizes the constraint, sizes the cyclic
// group, runs the generator search, and builds the probe context.
func New(cfg Config, transport Transport) (*Scanner, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if transport == nil {
		return nil, errors.New("core: transport is required")
	}
	mod, err := probe.Lookup(cfg.ProbeModule)
	if err != nil {
		return nil, err
	}
	// Target generation: finalize the constraint, size the cyclic group,
	// and search for a generator. This is the first lifecycle phase; its
	// timing lands in Metadata.Phases alongside send/cooldown/drain.
	genStart := time.Now()
	cfg.Constraint.Finalize()
	numIPs := cfg.Constraint.Count()
	if numIPs == 0 {
		return nil, errors.New("core: no eligible addresses after blocklist")
	}
	space, err := cyclic.NewSpace(numIPs, uint64(cfg.Ports.Len()))
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 && cfg.Resume != nil {
		// Zero means "derive from entropy", which can never match a
		// checkpoint; adopt the original scan's seed instead. An explicit
		// non-zero seed still must match (Verify below).
		seed = cfg.Resume.Fingerprint.Seed
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	cfg.Seed = seed
	rng := rand.New(rand.NewSource(seed))
	cycle := cyclic.NewCycle(space.Group(), rng)

	var key [validate.KeySize]byte
	rng.Read(key[:])
	validator := validate.New(key)
	genDur := time.Since(genStart)

	// Dedup state. The sliding window is partitioned into one shard per
	// receive worker — the flow-hash fanout guarantees every response of
	// one (IP, port) lands on the same worker, so each shard is
	// single-goroutine and lock-free.
	var dedupShards []*dedup.Window
	if cfg.DedupWindow >= 0 {
		size := cfg.DedupWindow
		if size == 0 {
			size = dedup.DefaultWindowSize
		}
		per := (size + cfg.RecvWorkers - 1) / cfg.RecvWorkers
		dedupShards = make([]*dedup.Window, cfg.RecvWorkers)
		for i := range dedupShards {
			dedupShards[i] = dedup.NewWindow(per)
		}
	}

	fp := cfg.Fingerprint()
	runs, firstStart, prevSecs := 1, time.Time{}, 0.0
	progress := make([]atomic.Uint64, cfg.Threads)
	if cfg.Resume != nil {
		if err := cfg.Resume.Verify(fp); err != nil {
			return nil, err
		}
		// Verify guarantees the thread counts agree; a progress array of
		// a different length means the snapshot is internally corrupt.
		if len(cfg.Resume.Progress) != cfg.Threads {
			return nil, fmt.Errorf("core: checkpoint has progress for %d threads, fingerprint says %d",
				len(cfg.Resume.Progress), cfg.Threads)
		}
		for t, done := range cfg.Resume.Progress {
			progress[t].Store(done)
		}
		if d := cfg.Resume.Dedup; d != nil && dedupShards != nil {
			keys, err := checkpoint.DecodeKeys(d.Keys)
			if err != nil {
				return nil, err
			}
			restoreDedupShards(dedupShards, keys)
		}
		runs = cfg.Resume.Runs + 1
		firstStart = cfg.Resume.FirstStart
		prevSecs = cfg.Resume.CumulativeSecs
	}

	s := &Scanner{
		cfg:         cfg,
		module:      mod,
		transport:   transport,
		space:       space,
		cycle:       cycle,
		progress:    progress,
		threadDone:  make([]atomic.Bool, cfg.Threads),
		fingerprint: fp,
		runs:        runs,
		firstStart:  firstStart,
		prevSecs:    prevSecs,
		stopCh:      make(chan struct{}),
		probeCtx: probe.Context{
			SrcIP:           cfg.SourceIP,
			SrcMAC:          cfg.SourceMAC,
			GwMAC:           cfg.GatewayMAC,
			Validator:       validator,
			SourcePortBase:  cfg.SourcePortBase,
			SourcePortCount: cfg.SourcePortCount,
			Options:         cfg.OptionLayout,
			RandomIPID:      cfg.RandomIPID,
			TTL:             cfg.TTL,
			TimestampValue:  uint32(seed),
		},
	}
	// Render computes exactly one word per frame, so sendLoop books
	// len(frames) per batch and the renderer's validator counts nothing:
	// a per-word count would be one shared write per probe. Classify keeps
	// the counted validator, because only the module knows whether a
	// frame got as far as a word.
	s.renderCtx = s.probeCtx
	s.renderCtx.Validator = validator.Uncounted()
	// A probe build depends on the scan's context, never on the target,
	// so a module that cannot build its template cannot build any probe:
	// refuse the scan here rather than send nothing.
	if s.renderer, err = mod.MakeTemplate(&s.renderCtx); err != nil {
		return nil, fmt.Errorf("core: probe module %s: %w", cfg.ProbeModule, err)
	}
	// Flight recorder: one ring shard per sender thread, one per
	// receive worker, and one reserved for the transport/netsim fault
	// bridge (see TraceFaultShard). Always on — its memory is bounded by
	// construction and its hot path is cheap enough to leave enabled
	// (see internal/trace). With RecvWorkers=1 the layout is exactly the
	// historical Threads+2.
	s.trace = trace.New(trace.Config{
		Shards:      cfg.Threads + cfg.RecvWorkers + 1,
		RingSize:    cfg.TraceRingSize,
		SampleEvery: cfg.TraceSampleEvery,
	})
	s.phases = append(s.phases, output.PhaseTiming{
		Phase:        "generation",
		Start:        genStart,
		DurationSecs: genDur.Seconds(),
	})
	s.trace.Journal(trace.JEntry{Kind: trace.JPhase, Phase: "generation",
		Detail: genDur.String()})
	cfg.Logger.Info("scan phase", "phase", "generation", "duration", genDur)
	if cfg.healthEnabled() {
		hc := health.Config{}
		if cfg.Health != nil {
			hc = *cfg.Health
		}
		if cfg.AdaptiveRate && hc.ConfiguredRate == 0 {
			hc.ConfiguredRate = cfg.Rate
		}
		if hc.MinRate == 0 {
			hc.MinRate = cfg.MinRate
		}
		if hc.QuarantineThreshold == 0 {
			hc.QuarantineThreshold = cfg.QuarantineThreshold
		}
		if hc.Interval == 0 {
			hc.Interval = cfg.HealthInterval
		}
		if hc.Logger == nil {
			hc.Logger = cfg.Logger
		}
		s.health = health.NewController(hc)
		// Every controller decision (AIMD cut/increase, quarantine,
		// parole) lands in the flight recorder's journal with its
		// evidence window, so an offline trace can attribute each one.
		s.health.SetJournal(s.trace.Journal)
		if cfg.Resume != nil {
			// Carry the learned rate, baselines, and quarantine set across
			// the restart so a resumed scan neither re-probes dark prefixes
			// nor re-discovers the network's capacity knee.
			s.health.Restore(cfg.Resume.Health)
		}
	}
	s.initMetrics(validator)
	s.recvPipe = newRecvPipeline(s, dedupShards)
	return s, nil
}

// Registry exposes the scan's metrics registry, for serving /metrics
// (see metrics.NewServer) or programmatic inspection.
func (s *Scanner) Registry() *metrics.Registry { return s.registry }

// Trace exposes the scan's flight recorder (always non-nil after New).
func (s *Scanner) Trace() *trace.Recorder { return s.trace }

// TraceFaultShard returns the ring shard reserved for transport-layer
// fault events (netsim scenario drops and the like). The single-writer
// contract applies: a bridge feeding it from concurrent transport
// goroutines must serialize its own Record calls.
func (s *Scanner) TraceFaultShard() *trace.Shard {
	return s.trace.Shard(s.cfg.Threads + s.cfg.RecvWorkers)
}

// WriteTrace snapshots the flight recorder and writes a dump: "jsonl"
// (default) or "chrome" (trace-event JSON for Perfetto/about:tracing).
// Safe to call at any time, including mid-scan — this is what SIGUSR1
// handlers and the metrics server's /debug/trace endpoint serve.
func (s *Scanner) WriteTrace(w io.Writer, format string) error {
	snap := s.trace.Snapshot()
	if format == "chrome" {
		return snap.WriteChromeTrace(w)
	}
	return snap.WriteJSONL(w)
}

// Space exposes the target space (for tests and tooling).
func (s *Scanner) Space() *cyclic.Space { return s.space }

// Cycle exposes the permutation (generator, offset) used by this scan.
func (s *Scanner) Cycle() cyclic.Cycle { return s.cycle }

// Progress returns the per-thread count of permutation elements consumed
// so far: what checkpoints persist and Config.Resume restores.
func (s *Scanner) Progress() []uint64 {
	out := make([]uint64, len(s.progress))
	for i := range s.progress {
		out[i] = s.progress[i].Load()
	}
	return out
}

// Stop requests a graceful shutdown: target generation stops, in-flight
// sends drain, the cooldown and drain phases still run so straggler
// responses are collected, all output streams flush, and (when
// CheckpointPath is set) a final exact checkpoint is written. Safe to
// call from any goroutine, any number of times. Contrast with canceling
// Run's context, which aborts the receive side too.
func (s *Scanner) Stop() {
	s.stopOnce.Do(func() {
		s.stopRequested.Store(true)
		close(s.stopCh)
	})
}

// Interrupted reports whether Stop was called (or a graceful interrupt
// otherwise ended the send phase early).
func (s *Scanner) Interrupted() bool { return s.stopRequested.Load() }

// SetRateCap imposes (or, with 0, lifts) an external aggregate rate cap
// on a running scan without touching its configured Rate. A fleet
// coordinator uses it to redistribute a global packets-per-second budget
// across worker processes: when a sibling worker dies its allowance
// moves to the survivors, and moves back on recovery. Senders fold the
// cap in at batch boundaries, so a new cap takes effect within one
// batch. The effective per-thread rate is min(configured share, health
// controller slice, cap/threads); a cap above the configured Rate has
// no effect. Safe from any goroutine.
func (s *Scanner) SetRateCap(pps float64) {
	if pps < 0 {
		pps = 0
	}
	s.rateCapBits.Store(math.Float64bits(pps))
}

// rateCap returns the current external cap (0 = none).
func (s *Scanner) rateCap() float64 {
	return math.Float64frombits(s.rateCapBits.Load())
}

// Fingerprint returns the configuration fingerprint pinning this scan's
// permutation — what checkpoints embed and resume verifies against.
func (s *Scanner) Fingerprint() checkpoint.Fingerprint { return s.fingerprint }

// Run executes the scan to completion (or ctx cancellation) and returns
// the metadata summary. Run may be called once.
func (s *Scanner) Run(ctx context.Context) (*output.Metadata, error) {
	cfg := &s.cfg
	s.start = time.Now()
	if s.firstStart.IsZero() {
		s.firstStart = s.start
	}
	log := cfg.Logger
	excluded, excludedFrac := cfg.Constraint.Excluded()
	log.Info("scan starting",
		"module", s.module.Name(),
		"targets", s.space.Targets(),
		"excluded_addrs", excluded,
		"excluded_pct", fmt.Sprintf("%.2f%%", excludedFrac*100),
		"group", s.space.Group().P,
		"generator", s.cycle.Generator,
		"shard", cfg.ShardIndex, "shards", cfg.Shards,
		"threads", cfg.Threads, "rate", cfg.Rate)

	var status *monitor.StatusWriter
	if cfg.StatusWriter != nil {
		status = monitor.NewStatusWriter(cfg.StatusWriter, monitor.StatusOptions{
			Interval:        cfg.StatusInterval,
			Format:          cfg.StatusFormat,
			Header:          cfg.StatusCSVHeader,
			ProbesPerTarget: cfg.ProbesPerTarget,
			Fill:            s.statusFill(),
		})
	}

	// Senders. The send side gets its own cancelable context so a
	// graceful Stop (or MaxRuntime) ends generation without killing the
	// receiver; cooldown and drain still run afterwards.
	var sendCtx context.Context
	var cancelSend context.CancelFunc
	if cfg.MaxRuntime > 0 {
		sendCtx, cancelSend = context.WithTimeout(ctx, cfg.MaxRuntime)
	} else {
		sendCtx, cancelSend = context.WithCancel(ctx)
	}
	defer cancelSend()
	go func() {
		select {
		case <-s.stopCh:
			log.Info("graceful stop requested; draining senders")
			cancelSend()
		case <-sendCtx.Done():
		}
	}()
	s.markPhase("send")
	var wg sync.WaitGroup
	var abortedThreads atomic.Uint64
	order := s.space.Group().Order()
	for t := 0; t < cfg.Threads; t++ {
		base := shard.Plan(shard.Pizza, order, cfg.Shards, cfg.Threads, cfg.ShardIndex, t)
		if s.progress[t].Load() > base.Count {
			// A resumed count past the end of the subshard is a finished
			// thread.
			s.progress[t].Store(base.Count)
		}
		wg.Add(1)
		go func(t int, base shard.Assignment) {
			defer wg.Done()
			defer s.threadDone[t].Store(true)
			if err := s.superviseSender(sendCtx, t, base); err != nil {
				abortedThreads.Add(1)
				s.trace.Journal(trace.JEntry{Kind: trace.JAbort,
					Name: fmt.Sprintf("thread-%d", t), Detail: err.Error()})
				log.Error("sender aborted", "thread", t, "err", err)
			}
		}(t, base)
	}

	// Receiver.
	recvDone := make(chan struct{})
	stopRecv := make(chan struct{})
	var cooldownAt atomic.Int64 // unix nanos when cooldown began; 0 while sending
	go func() {
		defer close(recvDone)
		s.recvLoop(ctx, stopRecv, &cooldownAt)
	}()

	// Periodic checkpointer: a snapshot every CheckpointInterval while
	// the scan runs, so a crash loses at most one interval of progress
	// (and re-probes at most one in-flight element per thread).
	var ckptDone chan struct{}
	var ckptStop chan struct{}
	if cfg.CheckpointPath != "" {
		ckptStop = make(chan struct{})
		ckptDone = make(chan struct{})
		go func() {
			defer close(ckptDone)
			ticker := time.NewTicker(cfg.CheckpointInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ckptStop:
					return
				case <-ctx.Done():
					return
				case <-ticker.C:
					s.writeCheckpoint(false)
				}
			}
		}()
	}

	// Health ticker: drives the closed-loop controller's quarantine and
	// AIMD decisions off the telemetry the send/receive paths feed it.
	var healthDone chan struct{}
	var healthStop chan struct{}
	if s.health != nil {
		healthStop = make(chan struct{})
		healthDone = make(chan struct{})
		go func() {
			defer close(healthDone)
			ticker := time.NewTicker(cfg.HealthInterval)
			defer ticker.Stop()
			for {
				select {
				case <-healthStop:
					return
				case <-ctx.Done():
					return
				case now := <-ticker.C:
					s.health.Tick(now)
				}
			}
		}()
	}

	wg.Wait()
	s.markPhase("cooldown")
	log.Debug("senders finished; entering cooldown",
		"cooldown", cfg.Cooldown, "cooldown_max", cfg.CooldownMax)
	cooldownAt.Store(time.Now().UnixNano())
	s.trace.Journal(trace.JEntry{Kind: trace.JCooldownBegin,
		Detail: cfg.Cooldown.String(), WindowRecv: s.counts.recv.Load()})
	s.cooldownActual = s.runCooldown(ctx)
	s.trace.Journal(trace.JEntry{Kind: trace.JCooldownEnd,
		Detail: s.cooldownActual.String(), WindowRecv: s.counts.recv.Load()})
	s.markPhase("drain")
	close(stopRecv)
	<-recvDone
	if status != nil {
		status.Stop()
	}
	if healthStop != nil {
		close(healthStop)
		<-healthDone
	}
	if ckptStop != nil {
		close(ckptStop)
		<-ckptDone
	}
	s.markPhase("done")
	s.markPhase("") // close "done" with its (near-zero) duration

	// Final checkpoint: senders and receiver have stopped, so per-thread
	// progress is exact — a resume from this file is exactly-once.
	if cfg.CheckpointPath != "" {
		s.writeCheckpoint(true)
	}

	meta := s.buildMetadata()
	if cfg.MetadataOut != nil {
		if err := meta.Emit(cfg.MetadataOut); err != nil {
			return meta, fmt.Errorf("core: writing metadata: %w", err)
		}
	}
	if err := cfg.Results.Close(); err != nil {
		return meta, fmt.Errorf("core: closing results: %w", err)
	}
	if meta.RowsLost > 0 {
		log.Error("result rows lost to write failures", "rows", meta.RowsLost)
	}
	log.Info("scan complete",
		"sent", meta.PacketsSent, "received", meta.PacketsRecv,
		"successes", meta.UniqueSucc, "hitrate", meta.HitRate)
	if n := abortedThreads.Load(); n > 0 {
		// Metadata was still emitted, results closed and the final
		// checkpoint written: a scan resumed from it covers the remainder.
		return meta, fmt.Errorf("%w (%d of %d threads)", ErrSenderAborted, n, cfg.Threads)
	}
	return meta, nil
}

// runCooldown holds the receiver open after sending completes until the
// wire goes quiet: the phase ends once no frame has arrived for a full
// Cooldown, and is bounded by CooldownMax however long stragglers keep
// trickling in. A quiet scan therefore pays exactly the configured
// cooldown while a scan with long response trains (blowback, slow paths)
// keeps collecting instead of truncating them. Returns the actual
// duration spent, which lands in Metadata.CooldownActualSecs.
func (s *Scanner) runCooldown(ctx context.Context) time.Duration {
	cfg := &s.cfg
	start := time.Now()
	poll := cfg.Cooldown / 8
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	} else if poll > 500*time.Millisecond {
		poll = 500 * time.Millisecond
	}
	lastRecv := s.counts.recv.Load()
	lastActivity := start
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return time.Since(start)
		case <-timer.C:
		}
		now := time.Now()
		if r := s.counts.recv.Load(); r != lastRecv {
			lastRecv, lastActivity = r, now
		}
		if now.Sub(lastActivity) >= cfg.Cooldown || now.Sub(start) >= cfg.CooldownMax {
			return time.Since(start)
		}
		timer.Reset(poll)
	}
}

// writeCheckpoint flushes the result writers and persists a snapshot.
// The emitted-record count is captured after the flush, inside the same
// critical section result writes use, so the snapshot's ResultsWritten
// is a floor on what the output file holds if the process dies
// immediately after — the crash-loss bound is the work of at most one
// checkpoint interval.
func (s *Scanner) writeCheckpoint(final bool) {
	s.resultsMu.Lock()
	// Push the workers' buffered results into the stream (the drain ends
	// in a flush), so the counted floor includes everything classified
	// before this point.
	s.drainResultsLocked()
	n := output.Written(s.cfg.Results)
	s.resultsMu.Unlock()
	snap := s.snapshot(final)
	snap.ResultsWritten = n
	if err := checkpoint.Save(s.cfg.CheckpointPath, snap); err != nil {
		s.cfg.Logger.Error("checkpoint write failed", "path", s.cfg.CheckpointPath, "err", err)
	} else {
		s.counts.checkpoints.Add(1)
		name := "periodic"
		if final {
			name = "final"
		}
		s.trace.Journal(trace.JEntry{Kind: trace.JCheckpoint, Name: name,
			Phase: snap.Phase, WindowSent: snap.PacketsSent,
			Detail: fmt.Sprintf("results_written=%d", n)})
	}
}

// snapshot assembles a checkpoint document from live scan state. With
// final=false (periodic, senders still running) each unfinished thread's
// progress is rounded down by one element: its counter may have ticked
// for an element whose probe has not hit the wire yet, and a resume must
// re-probe rather than skip it — at-least-once, with the duplicate (if
// any) suppressed by the restored dedup window. With final=true the
// counters are exact because every sender has returned.
func (s *Scanner) snapshot(final bool) *checkpoint.Snapshot {
	prog := make([]uint64, len(s.progress))
	for i := range s.progress {
		n := s.progress[i].Load()
		if !final && !s.threadDone[i].Load() && n > 0 {
			n--
		}
		prog[i] = n
	}
	phase, _ := s.phaseNow.Load().(string)
	if final {
		if s.stopRequested.Load() {
			phase = "interrupted"
		} else {
			phase = "done"
		}
	}
	if phase == "" {
		phase = "send"
	}
	snap := &checkpoint.Snapshot{
		Tool:           "zmapgo",
		ToolVersion:    Version,
		WrittenAt:      time.Now().UTC(),
		Fingerprint:    s.fingerprint,
		Phase:          phase,
		Progress:       prog,
		Runs:           s.runs,
		FirstStart:     s.firstStart,
		CumulativeSecs: s.prevSecs + time.Since(s.start).Seconds(),
		PacketsSent:    s.counts.sent.Load(),
		Dedup:          s.recvPipe.dedupSnapshot(),
	}
	if s.health != nil {
		snap.Health = s.health.Snapshot()
	}
	return snap
}

// superviseSender runs one sender thread under supervision: the subshard
// assignment is recomputed from the thread's progress counter on every
// (re)start, so a sender that dies on a fatal transport error or a panic
// resumes exactly where it stopped, up to MaxSenderRestarts times.
func (s *Scanner) superviseSender(ctx context.Context, thread int, base shard.Assignment) error {
	restarts := 0
	for {
		a := base
		done := s.progress[thread].Load()
		if done > a.Count {
			done = a.Count
		}
		a.Start += done * a.Stride
		a.Count -= done
		err := s.runSenderOnce(ctx, thread, a)
		if err == nil {
			return nil
		}
		if restarts >= s.cfg.MaxSenderRestarts {
			s.cfg.Logger.Error("sender restart budget exhausted",
				"thread", thread, "restarts", restarts, "err", err)
			return err
		}
		restarts++
		s.counts.senderRestarts.Add(1)
		s.cfg.Logger.Warn("restarting sender",
			"thread", thread, "restart", restarts, "err", err)
	}
}

// runSenderOnce converts sender panics into errors so supervision can
// restart the thread instead of crashing the scan. Nothing of the batch
// in flight is lost or booked: progress, targets and words are all
// resolved per batch, after its flush, so the restart takes the batch up
// again (re-sending whatever part of it already went out).
func (s *Scanner) runSenderOnce(ctx context.Context, thread int, a shard.Assignment) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: sender panic: %v", r)
		}
	}()
	return s.sendLoop(ctx, thread, a)
}

// Adaptive-rate thresholds: after degradeAfter consecutive probes that
// needed retries, a sender halves its rate share (down to 1/8 of the
// configured share); after recoverAfter consecutive clean first-attempt
// sends it restores the full share. Time spent below the configured
// share is reported as degraded_seconds.
const (
	degradeAfter    = 8
	recoverAfter    = 64
	minShareDivisor = 8
)

// rateState is the per-thread adaptive-rate controller, unchanged in
// semantics from the per-probe loop but fed at batch granularity: each
// frame that needed retries (or was dropped) is one dirty event, each
// frame the transport accepted first try is one clean event.
type rateState struct {
	s       *Scanner
	thread  int
	limiter *ratelimit.Limiter
	share   float64 // configured per-thread share (0 = unlimited)
	rate    float64 // current share after degradation
	applied float64 // rate last programmed into the limiter

	degraded   bool
	degradedAt time.Time
	retriedRun int // consecutive frames needing retries
	cleanRun   int // consecutive first-attempt successes
}

// applyRate programs the limiter with the effective per-thread rate: the
// local (degradation-adjusted) share capped by this thread's slice of the
// global health controller's target. The limiter's SetRate is owner-only,
// so senders call this at batch boundaries rather than the health ticker
// pushing rates at them.
func (rs *rateState) applyRate() {
	if rs.share <= 0 {
		return
	}
	target := rs.rate
	if h := rs.s.health; h != nil && h.Adaptive() {
		if g := h.Rate() / float64(rs.s.cfg.Threads); g < target {
			target = g
		}
	}
	if c := rs.s.rateCap(); c > 0 {
		if g := c / float64(rs.s.cfg.Threads); g < target {
			target = g
		}
	}
	if target != rs.applied {
		rs.limiter.SetRate(target)
		rs.applied = target
	}
}

// clean records n consecutive first-attempt sends.
func (rs *rateState) clean(n int) {
	if rs.share <= 0 || n <= 0 {
		return
	}
	rs.cleanRun += n
	rs.retriedRun = 0
	if rs.degraded && rs.cleanRun >= recoverAfter {
		rs.cleanRun = 0
		rs.rate = rs.share
		rs.applyRate()
		rs.degraded = false
		rs.endDegraded()
		rs.s.cfg.Logger.Info("restored send rate",
			"thread", rs.thread, "rate_pps", rs.share)
	}
}

// dirty records one frame that needed retries or was dropped.
func (rs *rateState) dirty() {
	if rs.share <= 0 {
		return
	}
	rs.retriedRun++
	rs.cleanRun = 0
	if rs.retriedRun < degradeAfter {
		return
	}
	rs.retriedRun = 0
	next := rs.rate / 2
	if min := rs.share / minShareDivisor; next < min {
		next = min
	}
	if next != rs.rate {
		rs.rate = next
		rs.applyRate()
		if !rs.degraded {
			rs.degraded = true
			rs.degradedAt = time.Now()
		}
		rs.s.cfg.Logger.Warn("degrading send rate",
			"thread", rs.thread, "rate_pps", next)
	}
}

// endDegraded books the wall time of the degraded spell now ending.
func (rs *rateState) endDegraded() {
	if d := time.Since(rs.degradedAt); d > 0 {
		rs.s.counts.degradedNanos.Add(uint64(d))
	}
}

// finish closes out degraded-time accounting when the loop exits.
func (rs *rateState) finish() {
	if rs.degraded {
		rs.endDegraded()
	}
}

// pendingRun tracks a run of permutation elements consumed during batch
// fill but not yet resolved into the thread's progress counter: a probed
// target and the zero-frame elements after it, or a batch's leading
// zero-frame elements.
type pendingRun struct {
	frames  int    // probe frames the run contributed to the batch
	elems   uint64 // permutation elements in the run
	targets uint64 // targets among them (probed or quarantine-skipped): booked at resolve
}

// skipElems books n zero-frame elements, targets of them quarantine
// skips and the rest outside the target space. A zero-frame element
// resolves exactly when the entry before it does, so it joins that
// entry; only a batch's leading run needs one of its own. pending
// therefore holds at most one entry per probed target plus one.
func skipElems(pending []pendingRun, n, targets uint64) []pendingRun {
	if n == 0 {
		return pending
	}
	if k := len(pending); k > 0 {
		pending[k-1].elems += n
		pending[k-1].targets += targets
		return pending
	}
	return append(pending, pendingRun{elems: n, targets: targets})
}

// sendLoop walks one subshard through a batched, zero-allocation
// pipeline: fill a ring of preallocated, template-rendered frames, draw
// rate tokens in batch grants, flush via SendBatch, then resolve
// progress. It owns its iterator and ring; nothing is shared except the
// per-thread progress counter, which makes the scan resumable.
//
// The per-element path writes nothing another goroutine writes: a
// batch's targets and validation words are booked once, at resolve. The
// exception is a MaxTargets cap, a budget every thread draws from: there
// each decoded target takes its slot at fill time, so the cap is exact at
// any thread count, and resolve gives back the slots of elements it did
// not keep.
//
// Progress discipline: the thread's counter advances only after every
// frame of an element has been handled by the transport (sent, or
// dropped after retries) — never at fill time. The counter therefore
// never runs ahead of the wire, so a periodic checkpoint stays
// at-least-once by construction, and flushing the partial batch before
// returning keeps a graceful stop exactly-once. A nil return means the
// subshard completed or the context ended; a non-nil return is a fatal
// transport error, with every unsent element left out of the progress
// counter so a supervised restart (or a resumed scan) covers it.
func (s *Scanner) sendLoop(ctx context.Context, thread int, a shard.Assignment) error {
	cfg := &s.cfg
	share := 0.0
	if cfg.Rate > 0 {
		share = cfg.Rate / float64(cfg.Threads)
	}
	limiter := ratelimit.New(share, cfg.Clock)
	sendLat := s.sendLat.Shard(thread)
	backoffLat := s.backoffLat.Shard(thread)
	if share > 0 {
		limiter.SetWaitRecorder(s.rlWait.Shard(thread))
	}
	rs := &rateState{s: s, thread: thread, limiter: limiter, share: share, rate: share, applied: share}
	defer rs.finish()
	tsh := s.trace.Shard(thread)

	batchCap := cfg.BatchSize
	if batchCap < cfg.ProbesPerTarget {
		batchCap = cfg.ProbesPerTarget
	}

	// Frame ring: fixed-length views into one backing array, seeded once
	// from the probe template and re-patched per target.
	renderer := s.renderer
	slots := make([][]byte, batchCap)
	backing := make([]byte, batchCap*renderer.Len())
	for i := range slots {
		slots[i] = backing[i*renderer.Len() : (i+1)*renderer.Len()]
		renderer.Seed(slots[i])
	}
	frames := make([][]byte, 0, batchCap)
	// frameKeys runs parallel to frames: the packed trace key of each
	// frame's target, zero for the (vast) unsampled majority. The flush
	// and retry paths use it to record sent/retried/dropped events
	// without re-deriving the target from frame bytes.
	frameKeys := make([]uint64, 0, batchCap)
	pending := make([]pendingRun, 0, batchCap+1)

	it := a.Iterator(s.cycle)
	base := s.progress[thread].Load()
	resolved := uint64(0) // elements fully handled since loop start

	// held counts the cap slots the batch in flight has taken; a panic
	// unwinding the loop gives them back, as resolve would have.
	capped := cfg.MaxTargets > 0
	var held uint64
	if capped {
		defer func() {
			if held > 0 {
				s.counts.targets.Add(-held)
			}
		}()
	}

	for {
		// Sync with the global health controller once per batch: cheap
		// (one atomic read), owner-goroutine-safe, and fast enough that a
		// rate cut takes effect within one batch of probes.
		rs.applyRate()

		// Fill phase: walk to targets and render their frames until the
		// ring is full, the subshard ends, or the MaxTargets budget runs
		// out. Nothing here advances progress. The context is checked
		// once per batch: a fill takes microseconds, and a context that
		// dies during it stops the flush before its first frame, so
		// nothing of the batch is sent or resolved but its leading run of
		// skipped elements.
		frames = frames[:0]
		frameKeys = frameKeys[:0]
		pending = pending[:0]
		last := false
		select {
		case <-ctx.Done():
			last = true
		default:
		}
		for !last && len(frames)+cfg.ProbesPerTarget <= batchCap {
			// Elements outside the target space are skipped inside the
			// walk and resolve with the batch, contributing no frames.
			ipIdx, portIdx, walked, ok := it.NextInSpace(s.space)
			if !ok {
				pending = skipElems(pending, walked, 0)
				last = true
				break
			}
			pending = skipElems(pending, walked-1, 0)
			if capped {
				if s.counts.targets.Add(1) > cfg.MaxTargets {
					// Over budget: give the slot back and leave the
					// element un-resolved so a resumed scan covers it.
					s.counts.targets.Add(^uint64(0))
					last = true
					break
				}
				held++
			}
			ip := cfg.Constraint.At(ipIdx)
			port := cfg.Ports.At(int(portIdx))
			if s.health != nil && s.health.Quarantined(ip) {
				if s.health.TakeParole(ip) {
					// Parole re-probe: this target rides the prefix's
					// small release budget instead of being skipped, so
					// a recovered prefix can prove it answers again.
					s.counts.paroleProbes.Add(1)
				} else {
					// Interfered prefix: the probe would be wasted, so
					// skip it. The element still consumes its
					// MaxTargets slot and resolves with the batch — a
					// resumed scan must not re-probe into the
					// quarantine either.
					s.counts.quarantineSkips.Add(1)
					pending = skipElems(pending, 1, 1)
					continue
				}
			}
			// Flight recorder: the deterministic sample decision is one
			// hash; only the 1-in-N sampled targets pay for Record calls.
			tkey := s.trace.Key(ip, port)
			if tkey != 0 {
				tsh.Record(trace.KProbeGen, ip, port, 0)
			}
			for p := 0; p < cfg.ProbesPerTarget; p++ {
				slot := slots[len(frames)]
				renderer.Render(slot, ip, port)
				frames = append(frames, slot)
				frameKeys = append(frameKeys, tkey)
			}
			if tkey != 0 {
				tsh.Record(trace.KProbeRendered, ip, port, uint64(cfg.ProbesPerTarget))
			}
			if s.health != nil {
				s.health.NoteSent(ip, uint64(cfg.ProbesPerTarget))
			}
			pending = append(pending, pendingRun{frames: cfg.ProbesPerTarget, elems: 1, targets: 1})
		}

		// Flush phase: tokens are drawn in batch grants and consumed only
		// by frames that actually reach the transport.
		handled, outcome, err := s.flushBatch(ctx, limiter, frames, frameKeys, tsh, rs, sendLat, backoffLat)

		// Resolve: elements whose frames all went out (and the zero-frame
		// elements between them) advance progress and are booked as
		// targets; everything at or past the first unhandled frame is left
		// for a restart or a resumed scan. Every rendered frame computed
		// one validation word, handled or not.
		used := 0
		var kept uint64
		for _, pr := range pending {
			if used+pr.frames > handled {
				break
			}
			used += pr.frames
			resolved += pr.elems
			kept += pr.targets
		}
		if len(frames) > 0 {
			s.counts.computes.Add(uint64(len(frames)))
		}
		if !capped {
			if kept > 0 {
				s.counts.targets.Add(kept)
			}
		} else if held > kept {
			s.counts.targets.Add(-(held - kept))
		}
		held = 0
		s.progress[thread].Store(base + resolved)

		switch outcome {
		case sendFatal:
			return fmt.Errorf("core: thread %d transport failed: %w", thread, err)
		case sendCanceled:
			return nil
		}
		if last {
			return nil
		}
	}
}

// flushBatch pushes one batch through the transport under the rate and
// retry policies and reports how many frames were fully handled (sent,
// or dropped after exhausting retries). outcome is sendOK when the
// whole batch was handled, else the fatal/cancel condition that stopped
// it at frames[handled].
//
// Token accounting: WaitN grants cover exactly the frames attempted. A
// frame that fails its batch attempt has consumed its token; its
// retries do not draw more (matching the per-probe loop, where one
// Wait covered all attempts of a probe). Frames never attempted —
// after a fatal error or cancellation — leave their tokens undrawn.
func (s *Scanner) flushBatch(ctx context.Context, limiter *ratelimit.Limiter, frames [][]byte, keys []uint64, tsh *trace.Shard, rs *rateState, sendLat, backoffLat *metrics.HistShard) (handled int, outcome sendOutcome, err error) {
	cfg := &s.cfg
	idx := 0
	tokens := 0
	for idx < len(frames) {
		if tokens == 0 {
			// Re-check cancellation between token grants: at low rates a
			// full batch takes many grant intervals, and a dying scan must
			// not sit through them. Frames not yet attempted resolve as
			// unhandled, so their elements are given back for resume.
			select {
			case <-ctx.Done():
				return idx, sendCanceled, ctx.Err()
			default:
			}
			tokens = limiter.WaitN(len(frames) - idx)
		}
		chunk := frames[idx : idx+tokens]
		t0 := time.Now()
		sent, serr := s.transport.SendBatch(chunk)
		// Amortize the call's latency across its attempts (delivered
		// frames plus the failed one, if any), so the histogram keeps
		// counting per-probe transport time as it did pre-batching.
		attempts := sent
		if serr != nil {
			attempts++
		}
		sendLat.RecordN(time.Since(t0)/time.Duration(max(attempts, 1)), attempts)
		if sent > 0 {
			s.counts.sent.Add(uint64(sent))
			rs.clean(sent)
			// Trace sampled frames with one amortized timestamp per
			// SendBatch call — the per-event cost stays at RecordAt's
			// benchmarked floor (see BenchmarkTraceRecord).
			var ts int64
			for _, k := range keys[idx : idx+sent] {
				if k == 0 {
					continue
				}
				if ts == 0 {
					ts = s.trace.Now()
				}
				tsh.RecordKeyAt(ts, trace.KProbeSent, k, 0)
			}
			idx += sent
			tokens -= sent
		}
		if serr == nil {
			if sent != len(chunk) {
				// A transport that under-delivers without an error has
				// broken the SendBatch contract; treat it as fatal
				// rather than spinning on it.
				return idx, sendFatal, fmt.Errorf("core: transport sent %d of %d without error", sent, len(chunk))
			}
			continue
		}
		s.counts.sendErrors.Add(1)
		if !IsTransientSendError(serr) {
			return idx, sendFatal, serr
		}
		// The failing frame retries alone; the rest of the batch waits.
		rout, rerr := s.retryFrame(ctx, frames[idx:idx+1], keys[idx], tsh, sendLat, backoffLat)
		switch rout {
		case sendOK:
			s.counts.sent.Add(1)
			tsh.RecordKeyAt(s.trace.Now(), trace.KProbeSent, keys[idx], 0)
		case sendDropped:
			// Retry budget exhausted: the probe is lost, counted
			// honestly, and the scan moves on (ZMap semantics).
			s.counts.sendDrops.Add(1)
			tsh.RecordKeyAt(s.trace.Now(), trace.KProbeDropped, keys[idx], 0)
			cfg.Logger.Debug("probe dropped after retries",
				"thread", rs.thread, "err", rerr)
		case sendCanceled:
			return idx, sendCanceled, rerr
		case sendFatal:
			return idx, sendFatal, rerr
		}
		rs.dirty()
		idx++
		tokens--
	}
	return len(frames), sendOK, nil
}

// retryFrame re-attempts one frame whose batch attempt failed
// transiently: up to cfg.Retries re-sends with bounded exponential
// backoff (on cfg.Clock), identical to the historical per-probe retry
// policy. frame is the one-element window of the batch holding it, so a
// retry is a batch of one and allocates nothing. The caller has already
// counted the triggering SendError.
func (s *Scanner) retryFrame(ctx context.Context, frame [][]byte, key uint64, tsh *trace.Shard, lat, backoff *metrics.HistShard) (sendOutcome, error) {
	cfg := &s.cfg
	var err error
	for attempt := 1; ; attempt++ {
		if attempt > cfg.Retries {
			return sendDropped, err
		}
		select {
		case <-ctx.Done():
			return sendCanceled, ctx.Err()
		default:
		}
		s.counts.retries.Add(1)
		tsh.RecordKeyAt(s.trace.Now(), trace.KProbeRetry, key, uint64(attempt))
		d := backoffFor(cfg.Backoff, attempt-1)
		backoff.Record(d)
		cfg.Clock.Sleep(d)
		t0 := time.Now()
		_, err = s.transport.SendBatch(frame)
		lat.Record(time.Since(t0))
		if err == nil {
			return sendOK, nil
		}
		s.counts.sendErrors.Add(1)
		if !IsTransientSendError(err) {
			return sendFatal, err
		}
	}
}

// recvLoop is the receive-side dispatcher: it blocks on the transport
// for the first frame of a train, drains the rest of the train in one
// non-blocking RecvBatch, and fans the frames out to the pipeline
// workers by flow hash. It runs until stop closes (end of cooldown) or
// the context dies; the deferred shutdown flushes the workers and the
// merge writer, so every frame read before return is fully processed and
// written.
func (s *Scanner) recvLoop(ctx context.Context, stop <-chan struct{}, cooldownAt *atomic.Int64) {
	p := s.recvPipe
	p.start(cooldownAt)
	defer p.shutdown()
	recvCh := s.transport.Recv()
	scratch := make([][]byte, recvBatchFrames)
	fills := make([]*recvBatch, len(p.workers))
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case frame := <-recvCh:
			// One clock read per train, shared by every frame in it.
			t0 := time.Now()
			scratch[0] = frame
			n := 1 + s.transport.RecvBatch(scratch[1:])
			s.fanout(scratch[:n], fills, t0)
		}
	}
}
