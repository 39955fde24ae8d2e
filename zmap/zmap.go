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
	"cmp"
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
	"zmapgo/internal/probe"
	"zmapgo/internal/ratelimit"
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
	Ranges []string `json:"ranges,omitempty"`
	// Blocklist lists excluded CIDRs (applied after Ranges).
	Blocklist []string `json:"blocklist,omitempty"`
	// BlocklistFile is parsed in ZMap blocklist format, if non-nil.
	BlocklistFile io.Reader `json:"-"`

	// Ports uses ZMap port syntax: "80", "80,443", "8000-8010", "*".
	Ports string `json:"ports,omitempty"`

	// Probe selects the probe module (default tcp_synscan).
	Probe string `json:"probe,omitempty"`

	// Rate is probes/sec; Bandwidth ("10M", "1G") overrides Rate when
	// set, converted using the probe's on-wire size.
	Rate      float64 `json:"rate,omitempty"`
	Bandwidth string  `json:"bandwidth,omitempty"`

	// BatchSize is how many probe frames each sender thread hands the
	// transport per flush (0 = default 64; 1 degenerates to per-probe
	// sends). Larger batches amortize per-send overhead; progress and
	// rate accounting stay exact at any size.
	BatchSize int `json:"batch_size,omitempty"`

	// RecvWorkers is how many sharded receive workers parse, validate,
	// and deduplicate responses (0 = default 1, the classic single
	// receive thread; values round up to a power of two). Responses fan
	// out by flow hash, so every response for one target lands on the
	// same worker and output stays equivalent at any worker count.
	RecvWorkers int `json:"recv_workers,omitempty"`

	// Seed fixes the target permutation; 0 derives one from the clock.
	Seed int64 `json:"seed,omitempty"`

	// Sharding: this process is shard ShardIndex of Shards total, with
	// Threads sender goroutines.
	Shards     int `json:"shards,omitempty"`
	ShardIndex int `json:"shard_index,omitempty"`
	Threads    int `json:"threads,omitempty"`

	// TCPOptions names the SYN option layout: none, mss (default),
	// sack, timestamp, wscale, optimal, linux, bsd, windows.
	TCPOptions string `json:"tcp_options,omitempty"`

	// StaticIPID restores the classic fingerprintable IP ID 54321; the
	// default is the modern random per-probe ID (§4.3, 2024 change).
	StaticIPID bool `json:"static_ip_id,omitempty"`

	// ProbesPerTarget re-sends each probe k times.
	ProbesPerTarget int `json:"probes_per_target,omitempty"`

	// MaxTargets caps (IP, port) targets probed by this shard.
	MaxTargets uint64 `json:"max_targets,omitempty"`

	// Cooldown keeps the receiver open after sending (default 8s). The
	// cooldown is quiescence-based: it ends once no response has arrived
	// for a full Cooldown, extending while stragglers keep trickling in,
	// bounded by CooldownMax (0 = 4x Cooldown; negative = fixed legacy
	// behavior, exactly Cooldown).
	Cooldown    time.Duration `json:"cooldown,omitempty"`
	CooldownMax time.Duration `json:"cooldown_max,omitempty"`

	// AdaptiveRate enables the closed-loop scan-health controller: the
	// aggregate rate is cut multiplicatively when the windowed hit rate
	// collapses or ICMP unreachables spike (the network is shedding our
	// load), then recovered additively toward Rate. Requires a finite
	// Rate or Bandwidth. MinRate floors the decrease (0 = Rate/64).
	AdaptiveRate bool    `json:"adaptive_rate,omitempty"`
	MinRate      float64 `json:"min_rate,omitempty"`

	// QuarantineThreshold tunes per-/16 interference quarantine: a
	// previously-responsive prefix whose windowed response rate drops
	// below this fraction of its own baseline for several consecutive
	// health ticks stops being probed, and the event is recorded in the
	// Summary. 0 = default 0.15 when the health subsystem is on
	// (AdaptiveRate or an explicit threshold); negative disables.
	QuarantineThreshold float64 `json:"quarantine_threshold,omitempty"`

	// HealthInterval is the health controller's evaluation period
	// (0 = 1s).
	HealthInterval time.Duration `json:"health_interval,omitempty"`

	// Health optionally overrides every scan-health knob — collapse
	// evidence persistence, hold periods, quarantine parole cadence —
	// beyond the common fields above. Zero-valued fields inherit
	// AdaptiveRate/MinRate/QuarantineThreshold/HealthInterval, then the
	// health package defaults.
	Health *health.Config `json:"-"`

	// MaxRuntime stops sending after this duration (0 = unlimited).
	MaxRuntime time.Duration `json:"max_runtime,omitempty"`

	// Retries bounds per-probe re-sends after transient transport
	// errors, ZMap's ENOBUFS behavior (0 = default 10, negative = none).
	Retries int `json:"retries,omitempty"`

	// Backoff is the initial retry backoff, doubled per attempt and
	// capped at 64x (0 = 1ms default).
	Backoff time.Duration `json:"backoff,omitempty"`

	// MaxSenderRestarts bounds supervised sender-thread restarts after
	// panics or fatal transport errors (0 = default 2, negative = none).
	MaxSenderRestarts int `json:"max_sender_restarts,omitempty"`

	// CheckpointPath makes the scan crash-safe: a snapshot of scan state
	// is written atomically to this file every CheckpointInterval
	// (default 5s) and once more, exactly, at the end of the scan or on
	// a graceful Stop. Resume a killed scan by loading the file with
	// LoadCheckpoint into Resume.
	CheckpointPath     string        `json:"checkpoint_path,omitempty"`
	CheckpointInterval time.Duration `json:"checkpoint_interval,omitempty"`

	// Resume restores an interrupted scan from a checkpoint. The
	// snapshot's fingerprint must match this configuration (Compile
	// fails with ErrCheckpointMismatch otherwise); a zero Seed is
	// adopted from the snapshot.
	Resume *Checkpoint `json:"-"`

	// DedupWindow sizes response deduplication (0 = default 10^6,
	// negative disables).
	DedupWindow int `json:"dedup_window,omitempty"`

	// SourceIP is the scanner's address (defaults to 192.0.2.1, the
	// TEST-NET address, which the simulator treats as external).
	SourceIP string `json:"source_ip,omitempty"`

	// Output: Format is text|csv|jsonl; Filter is a ZMap output filter
	// expression (default "success = 1 && repeat = 0"); Results is the
	// destination (default: discard, counts only).
	Format  string    `json:"format,omitempty"`
	Filter  string    `json:"filter,omitempty"`
	Results io.Writer `json:"-"`

	// StatusUpdates receives 1 Hz progress lines (ZMap's third output
	// stream). StatusFormat selects "csv" (default, ZMap-compatible
	// columns) or "json" (one object per line with per-thread rates and
	// send-latency quantiles). StatusCSVHeader prepends the CSV column
	// header line. StatusInterval overrides the 1 s cadence (tests).
	StatusUpdates   io.Writer     `json:"-"`
	StatusFormat    string        `json:"status_format,omitempty"`
	StatusCSVHeader bool          `json:"status_csv_header,omitempty"`
	StatusInterval  time.Duration `json:"status_interval,omitempty"`
	// Metrics optionally supplies the registry the scan records into;
	// nil creates a private one, available via Scanner.Metrics. A
	// registry an earlier scan used is rebound to this one: its zmapgo_*
	// series then describe this scan alone.
	Metrics *MetricsRegistry `json:"-"`

	// TraceSampleEvery tunes the flight recorder's probe-lifecycle
	// sampling: 1 in N targets is traced end-to-end (0 = default 256,
	// rounded up to a power of two; 1 traces every target; negative
	// disables probe sampling — the decision journal always stays on).
	TraceSampleEvery int `json:"trace_sample_every,omitempty"`
	// TraceRingSize is the recorder's per-shard event capacity
	// (0 = default 8192).
	TraceRingSize int `json:"trace_ring_size,omitempty"`
	// Metadata receives the end-of-scan JSON document.
	Metadata io.Writer `json:"-"`
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger `json:"-"`
}

// Scanner is a compiled, runnable scan.
type Scanner struct {
	inner *core.Scanner
}

// config is Compile's front half: the CLI-shaped values parsed into the
// engine's Config, no scanner built. RunFleet runs it alone.
func (o Options) config() (none core.Config, err error) {
	cons := target.NewConstraint(len(o.Ranges) == 0)
	for _, r := range o.Ranges {
		if err := cons.AllowCIDR(r); err != nil {
			return none, err
		}
	}
	for _, b := range o.Blocklist {
		if err := cons.DenyCIDR(b); err != nil {
			return none, err
		}
	}
	if o.BlocklistFile != nil {
		if _, err := target.ReadBlocklist(o.BlocklistFile, cons.DenyCIDR); err != nil {
			return none, err
		}
	}

	ports, err := target.ParsePorts(cmp.Or(o.Ports, "80"))
	if err != nil {
		return none, err
	}

	layout := packet.LayoutMSS
	if o.TCPOptions != "" {
		var ok bool
		layout, ok = packet.ParseOptionLayout(o.TCPOptions)
		if !ok {
			return none, fmt.Errorf("zmap: unknown TCP option layout %q", o.TCPOptions)
		}
	}

	rate := o.Rate
	if o.Bandwidth != "" {
		bits, err := ratelimit.ParseBandwidth(o.Bandwidth)
		if err != nil {
			return none, err
		}
		mod, err := probe.Lookup(cmp.Or(o.Probe, core.DefaultProbeModule))
		if err != nil {
			return none, err
		}
		frameLen := mod.ProbeLen(&probe.Context{Options: layout})
		rate = ratelimit.BandwidthToRate(bits, packet.WireLen(frameLen))
	}

	srcIP := uint32(0xC0000201) // 192.0.2.1
	if o.SourceIP != "" {
		srcIP, err = target.ParseIPv4(o.SourceIP)
		if err != nil {
			return none, err
		}
	}

	filter, err := output.CompileFilter(cmp.Or(o.Filter, output.DefaultFilterExpr))
	if err != nil {
		return none, err
	}
	var results output.Writer
	if o.Results != nil {
		w, err := output.NewWriter(o.Format, o.Results, ports.Len() > 1)
		if err != nil {
			return none, err
		}
		results = &output.Filtered{W: w, Filter: filter}
	} else {
		results = &output.CountingWriter{}
	}

	return core.Config{
		ProbeModule:         o.Probe,
		Constraint:          cons,
		Ports:               ports,
		Seed:                o.Seed,
		Shards:              o.Shards,
		ShardIndex:          o.ShardIndex,
		Threads:             o.Threads,
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
	}, nil
}

// Compile validates options and prepares a scanner bound to transport.
func (o Options) Compile(transport Transport) (*Scanner, error) {
	cfg, err := o.config()
	if err != nil {
		return nil, err
	}
	inner, err := core.New(cfg, transport)
	if err != nil {
		return nil, err
	}
	// When scanning the simulated Internet, record each scheduled
	// response's modeled delay (RTT + blowback gap) as a histogram, so
	// the sim's latency distribution is visible next to the real ones.
	if dr, ok := transport.(delayRecordable); ok {
		h := inner.Registry().NewHistogram("zmapgo_sim_response_delay_seconds",
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
