// Package zmap is the public library interface to the scanner — the
// "backend library" half of the paper's §5 recommendation to "structure
// tools with two major components: a backend library and a simple command
// line interface that wraps the library." cmd/zmapgo is the thin CLI.
//
// A scan is configured with Options (string-typed, CLI-shaped fields),
// compiled into a Scanner, and run against a Transport. The repository
// ships a deterministic simulated Internet (see NewInternet) standing in
// for the real IPv4 address space, so examples and experiments are
// reproducible and ethical by construction; a raw-socket Transport would
// slot into the same interface on a real network.
package zmap

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/core"
	"zmapgo/internal/health"
	"zmapgo/internal/metrics"
	"zmapgo/internal/output"
	"zmapgo/internal/packet"
	"zmapgo/internal/ratelimit"
	"zmapgo/internal/shard"
	"zmapgo/internal/target"
)

// MetricsRegistry is the scan's metric registry: counters, gauges, and
// latency histograms recorded on the engine's hot paths. Obtain one from
// Scanner.Metrics, render it with WriteMetrics, or serve it over HTTP
// (Prometheus text format plus pprof) with NewMetricsServer.
type MetricsRegistry = metrics.Registry

// MetricsServer serves a registry over HTTP; see NewMetricsServer.
type MetricsServer = metrics.Server

// NewMetricsServer starts an HTTP server on addr (e.g. ":9100" or
// "127.0.0.1:0") exposing /metrics in Prometheus text format and the
// /debug/pprof profiling endpoints. Close it when the scan ends.
func NewMetricsServer(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return metrics.NewServer(addr, reg)
}

// WriteMetrics renders the registry in Prometheus text exposition
// format — useful for one-shot dumps without running a server.
func WriteMetrics(w io.Writer, reg *MetricsRegistry) error {
	return reg.WritePrometheus(w)
}

// Version is the library version (semantic versioning, per §5).
const Version = core.Version

// Transport moves batches of frames between the scanner and a network.
// It is satisfied by the simulated link returned from Internet.NewLink.
// SendBatch may fail; see ErrSenderAborted for how unrecoverable
// failures surface.
type Transport = core.Transport

// ErrSenderAborted is returned (wrapped) by Scanner.Run when sender
// threads died on fatal transport errors and exhausted their restart
// budget. The Summary is still returned, and with Options.CheckpointPath
// set the final checkpoint is exact: load it into Options.Resume to
// finish the scan.
var ErrSenderAborted = core.ErrSenderAborted

// Summary is the end-of-scan metadata document.
type Summary = output.Metadata

// Checkpoint is a persisted scan snapshot; see Options.CheckpointPath
// and Options.Resume. Produced by the engine, loaded with
// LoadCheckpoint, never constructed by hand.
type Checkpoint = checkpoint.Snapshot

// ErrCheckpointMismatch is returned (wrapped) by Compile when
// Options.Resume carries a snapshot whose configuration fingerprint
// differs from the scan being compiled. Resuming under a different
// permutation silently mis-covers the target space, so this is a hard
// error, never a warning.
var ErrCheckpointMismatch = checkpoint.ErrFingerprintMismatch

// LoadCheckpoint reads and validates a snapshot written by a previous
// run's CheckpointPath.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return checkpoint.Load(path)
}

// Record is one scan result row; see Schema.
type Record = output.Record

// Schema describes the static result schema.
func Schema() []output.FieldDoc { return output.Schema() }

// Options configures a scan with CLI-shaped values. Zero values take
// ZMap's defaults. Compile validates and turns them into a Scanner.
type Options struct {
	// Ranges lists target CIDRs (empty = entire IPv4 space).
	Ranges []string
	// Blocklist lists excluded CIDRs (applied after Ranges).
	Blocklist []string
	// BlocklistFile is parsed in ZMap blocklist format, if non-nil.
	BlocklistFile io.Reader

	// Ports uses ZMap port syntax: "80", "80,443", "8000-8010", "*".
	Ports string

	// Probe selects the probe module (default tcp_synscan).
	Probe string

	// Rate is probes/sec; Bandwidth ("10M", "1G") overrides Rate when
	// set, converted using the probe's on-wire size.
	Rate      float64
	Bandwidth string

	// BatchSize is how many probe frames each sender thread hands the
	// transport per flush (0 = default 64; 1 degenerates to per-probe
	// sends). Larger batches amortize per-send overhead; progress and
	// rate accounting stay exact at any size.
	BatchSize int

	// RecvWorkers is how many sharded receive workers parse, validate,
	// and deduplicate responses (0 = default 1, the classic single
	// receive thread; values round up to a power of two). Responses fan
	// out by flow hash, so every response for one target lands on the
	// same worker and output stays equivalent at any worker count.
	RecvWorkers int

	// Seed fixes the target permutation; 0 derives one from the clock.
	Seed int64

	// Sharding: this process is shard ShardIndex of Shards total, with
	// Threads sender goroutines.
	Shards     int
	ShardIndex int
	Threads    int
	// InterleavedSharding selects the legacy pre-2017 scheme.
	InterleavedSharding bool

	// TCPOptions names the SYN option layout: none, mss (default),
	// sack, timestamp, wscale, optimal, linux, bsd, windows.
	TCPOptions string

	// StaticIPID restores the classic fingerprintable IP ID 54321; the
	// default is the modern random per-probe ID (§4.3, 2024 change).
	StaticIPID bool

	// ProbesPerTarget re-sends each probe k times.
	ProbesPerTarget int

	// MaxTargets caps (IP, port) targets probed by this shard.
	MaxTargets uint64

	// Cooldown keeps the receiver open after sending (default 8s). The
	// cooldown is quiescence-based: it ends once no response has arrived
	// for a full Cooldown, extending while stragglers keep trickling in,
	// bounded by CooldownMax (0 = 4x Cooldown; negative = fixed legacy
	// behavior, exactly Cooldown).
	Cooldown    time.Duration
	CooldownMax time.Duration

	// AdaptiveRate enables the closed-loop scan-health controller: the
	// aggregate rate is cut multiplicatively when the windowed hit rate
	// collapses or ICMP unreachables spike (the network is shedding our
	// load), then recovered additively toward Rate. Requires a finite
	// Rate or Bandwidth. MinRate floors the decrease (0 = Rate/64).
	AdaptiveRate bool
	MinRate      float64

	// QuarantineThreshold tunes per-/16 interference quarantine: a
	// previously-responsive prefix whose windowed response rate drops
	// below this fraction of its own baseline for several consecutive
	// health ticks stops being probed, and the event is recorded in the
	// Summary. 0 = default 0.15 when the health subsystem is on
	// (AdaptiveRate or an explicit threshold); negative disables.
	QuarantineThreshold float64

	// HealthInterval is the health controller's evaluation period
	// (0 = 1s).
	HealthInterval time.Duration

	// Health optionally overrides every scan-health knob — collapse
	// evidence persistence, hold periods, quarantine parole cadence —
	// beyond the common fields above. Zero-valued fields inherit
	// AdaptiveRate/MinRate/QuarantineThreshold/HealthInterval, then the
	// health package defaults.
	Health *health.Config

	// MaxRuntime stops sending after this duration (0 = unlimited).
	MaxRuntime time.Duration

	// Retries bounds per-probe re-sends after transient transport
	// errors, ZMap's ENOBUFS behavior (0 = default 10, negative = none).
	Retries int

	// Backoff is the initial retry backoff, doubled per attempt and
	// capped at 64x (0 = 1ms default).
	Backoff time.Duration

	// MaxSenderRestarts bounds supervised sender-thread restarts after
	// panics or fatal transport errors (0 = default 2, negative = none).
	MaxSenderRestarts int

	// CheckpointPath makes the scan crash-safe: a snapshot of scan state
	// is written atomically to this file every CheckpointInterval
	// (default 5s) and once more, exactly, at the end of the scan or on
	// a graceful Stop. Resume a killed scan by loading the file with
	// LoadCheckpoint into Resume.
	CheckpointPath     string
	CheckpointInterval time.Duration

	// Resume restores an interrupted scan from a checkpoint. The
	// snapshot's fingerprint must match this configuration (Compile
	// fails with ErrCheckpointMismatch otherwise); a zero Seed is
	// adopted from the snapshot.
	Resume *Checkpoint

	// DedupWindow sizes response deduplication (0 = default 10^6,
	// negative disables).
	DedupWindow int

	// SourceIP is the scanner's address (defaults to 192.0.2.1, the
	// TEST-NET address, which the simulator treats as external).
	SourceIP string

	// Output: Format is text|csv|jsonl; Filter is a ZMap output filter
	// expression (default "success = 1 && repeat = 0"); Results is the
	// destination (default: discard, counts only).
	Format  string
	Filter  string
	Results io.Writer

	// StatusUpdates receives 1 Hz progress lines (ZMap's third output
	// stream). StatusFormat selects "csv" (default, ZMap-compatible
	// columns) or "json" (one object per line with per-thread rates and
	// send-latency quantiles). StatusCSVHeader prepends the CSV column
	// header line. StatusInterval overrides the 1 s cadence (tests).
	StatusUpdates   io.Writer
	StatusFormat    string
	StatusCSVHeader bool
	StatusInterval  time.Duration
	// Metrics optionally supplies the registry the scan records into;
	// nil creates a private one, available via Scanner.Metrics.
	Metrics *MetricsRegistry

	// TraceSampleEvery tunes the flight recorder's probe-lifecycle
	// sampling: 1 in N targets is traced end-to-end (0 = default 256,
	// rounded up to a power of two; 1 traces every target; negative
	// disables probe sampling — the decision journal always stays on).
	TraceSampleEvery int
	// TraceRingSize is the recorder's per-shard event capacity
	// (0 = default 8192).
	TraceRingSize int
	// Metadata receives the end-of-scan JSON document.
	Metadata io.Writer
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
}

// Scanner is a compiled, runnable scan.
type Scanner struct {
	inner *core.Scanner
}

// Compile validates options and prepares a scanner bound to transport.
func (o Options) Compile(transport Transport) (*Scanner, error) {
	cons := target.NewConstraint(len(o.Ranges) == 0)
	for _, r := range o.Ranges {
		if err := cons.AllowCIDR(r); err != nil {
			return nil, err
		}
	}
	for _, b := range o.Blocklist {
		if err := cons.DenyCIDR(b); err != nil {
			return nil, err
		}
	}
	if o.BlocklistFile != nil {
		if _, err := cons.LoadBlocklist(o.BlocklistFile); err != nil {
			return nil, err
		}
	}

	portSpec := o.Ports
	if portSpec == "" {
		portSpec = "80"
	}
	ports, err := target.ParsePorts(portSpec)
	if err != nil {
		return nil, err
	}

	layout := packet.LayoutMSS
	if o.TCPOptions != "" {
		var ok bool
		layout, ok = packet.ParseOptionLayout(o.TCPOptions)
		if !ok {
			return nil, fmt.Errorf("zmap: unknown TCP option layout %q", o.TCPOptions)
		}
	}

	rate := o.Rate
	if o.Bandwidth != "" {
		bits, err := ratelimit.ParseBandwidth(o.Bandwidth)
		if err != nil {
			return nil, err
		}
		frameLen := packet.SYNFrameLen(layout)
		rate = ratelimit.BandwidthToRate(bits, packet.WireLen(frameLen))
	}

	srcIP := uint32(0xC0000201) // 192.0.2.1
	if o.SourceIP != "" {
		srcIP, err = target.ParseIPv4(o.SourceIP)
		if err != nil {
			return nil, err
		}
	}

	filterExpr := o.Filter
	if filterExpr == "" {
		filterExpr = output.DefaultFilterExpr
	}
	filter, err := output.CompileFilter(filterExpr)
	if err != nil {
		return nil, err
	}
	var results output.Writer
	if o.Results != nil {
		w, err := output.NewWriter(o.Format, o.Results, ports.Len() > 1)
		if err != nil {
			return nil, err
		}
		results = &output.Filtered{W: w, Filter: filter}
	} else {
		results = &output.CountingWriter{}
	}

	mode := shard.Pizza
	if o.InterleavedSharding {
		mode = shard.Interleaved
	}

	cfg := core.Config{
		ProbeModule:         o.Probe,
		Constraint:          cons,
		Ports:               ports,
		Seed:                o.Seed,
		Shards:              o.Shards,
		ShardIndex:          o.ShardIndex,
		Threads:             o.Threads,
		ShardMode:           mode,
		Rate:                rate,
		BatchSize:           o.BatchSize,
		RecvWorkers:         o.RecvWorkers,
		ProbesPerTarget:     o.ProbesPerTarget,
		MaxTargets:          o.MaxTargets,
		Cooldown:            o.Cooldown,
		CooldownMax:         o.CooldownMax,
		AdaptiveRate:        o.AdaptiveRate,
		MinRate:             o.MinRate,
		QuarantineThreshold: o.QuarantineThreshold,
		HealthInterval:      o.HealthInterval,
		Health:              o.Health,
		MaxRuntime:          o.MaxRuntime,
		Retries:             o.Retries,
		Backoff:             o.Backoff,
		MaxSenderRestarts:   o.MaxSenderRestarts,
		CheckpointPath:      o.CheckpointPath,
		CheckpointInterval:  o.CheckpointInterval,
		Resume:              o.Resume,
		SourceIP:            srcIP,
		SourceMAC:           packet.MAC{0x02, 0x5A, 0x47, 0x4F, 0x00, 0x01},
		GatewayMAC:          packet.MAC{0x02, 0x5A, 0x47, 0x4F, 0x00, 0xFE},
		OptionLayout:        layout,
		RandomIPID:          !o.StaticIPID,
		Results:             results,
		StatusWriter:        o.StatusUpdates,
		StatusFormat:        o.StatusFormat,
		StatusCSVHeader:     o.StatusCSVHeader,
		StatusInterval:      o.StatusInterval,
		Metrics:             o.Metrics,
		Logger:              o.Logger,
		MetadataOut:         o.Metadata,
		DedupWindow:         o.DedupWindow,
		TraceSampleEvery:    o.TraceSampleEvery,
		TraceRingSize:       o.TraceRingSize,
	}
	inner, err := core.New(cfg, transport)
	if err != nil {
		return nil, err
	}
	// When scanning the simulated Internet, record each scheduled
	// response's modeled delay (RTT + blowback gap) as a histogram, so
	// the sim's latency distribution is visible next to the real ones.
	if dr, ok := transport.(delayRecordable); ok {
		h := inner.Registry().Histogram("zmapgo_sim_response_delay_seconds",
			"Simulated (unscaled) response delay scheduled by the netsim link.", 1)
		dr.SetSimDelayRecorder(h.Shard(0))
	}
	// Put netsim scenario events and fault drops on the flight
	// recorder's timeline, so an offline trace can attribute controller
	// decisions to the faults that provoked them.
	if wo, ok := transport.(weatherObservable); ok {
		wo.SetWeatherObserver(&weatherBridge{
			rec: inner.Trace(),
			sh:  inner.TraceFaultShard(),
		})
	}
	return &Scanner{inner: inner}, nil
}

// delayRecordable is satisfied by *Link; Compile uses it to attach the
// sim-delay histogram without binding Options to the simulator.
type delayRecordable interface {
	SetSimDelayRecorder(r interface{ Record(d time.Duration) })
}

// Run executes the scan and returns its summary.
func (s *Scanner) Run(ctx context.Context) (*Summary, error) {
	return s.inner.Run(ctx)
}

// Stop requests a graceful shutdown of a running scan: sending stops,
// the cooldown and drain phases still run, all output streams flush,
// and a final exact checkpoint is written when CheckpointPath is set.
// Run then returns normally with Summary.Interrupted set. Safe to call
// from a signal handler; idempotent. Canceling Run's context instead
// aborts hard, skipping cooldown and the output flush ordering.
func (s *Scanner) Stop() { s.inner.Stop() }

// SetRateCap imposes (or, with 0, lifts) a live aggregate rate cap in
// probes/sec on a compiled scan, below both Options.Rate and the
// adaptive controller's target. Safe to call concurrently with Run; the
// cap takes effect at the next sender batch boundary. Fleet workers use
// this to follow the coordinator's budget redistribution.
func (s *Scanner) SetRateCap(pps float64) { s.inner.SetRateCap(pps) }

// Metrics returns the scan's registry (Options.Metrics, or the private
// one Compile created). Valid before, during, and after Run.
func (s *Scanner) Metrics() *MetricsRegistry { return s.inner.Registry() }

// Targets returns the number of (IP, port) targets the full scan covers.
func (s *Scanner) Targets() uint64 { return s.inner.Space().Targets() }

// GroupPrime returns the cyclic group modulus selected for this scan.
func (s *Scanner) GroupPrime() uint64 { return s.inner.Space().Group().P }

// Generator returns the multiplicative-group generator in use.
func (s *Scanner) Generator() uint64 { return s.inner.Cycle().Generator }

// OptionLayouts lists the TCP option layout names usable in
// Options.TCPOptions, in Figure 7 order.
func OptionLayouts() []string {
	out := make([]string, 0, 9)
	for _, l := range packet.AllOptionLayouts() {
		out = append(out, l.String())
	}
	return out
}

// ParseTargets is a convenience for "CIDR,CIDR,..." strings from CLIs.
func ParseTargets(spec string) []string {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	parts := strings.Split(spec, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
