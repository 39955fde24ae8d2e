package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/metrics"
	"zmapgo/internal/output"
	"zmapgo/internal/trace"
)

// ErrFingerprintMismatch re-exports the checkpoint sentinel: a shard's
// durable state (lease or checkpoint) belongs to a different scan
// configuration. Resuming it would silently mis-cover the target space,
// so the whole fleet fails instead.
var ErrFingerprintMismatch = checkpoint.ErrFingerprintMismatch

// ErrRespawnsExhausted is wrapped into Run's error when one shard died
// more times than Config.MaxRespawns allows.
var ErrRespawnsExhausted = errors.New("fleet: respawn budget exhausted")

// Config drives one fleet run.
type Config struct {
	// Workers is the shard count: the scan is split into this many
	// pizza shards, one worker process each.
	Workers int

	// Dir is the fleet state directory; each shard gets a
	// subdirectory holding its spec, lease, checkpoint, rate file, and
	// per-epoch output/metadata runs.
	Dir string

	// Binary is the worker executable (default: this process's own
	// binary, which must call zmap.FleetWorkerMain at startup). The
	// worker contract travels in the environment; it takes no arguments.
	Binary string

	// Scan is the shared scan description: a JSON document the worker
	// runtime (zmap) writes and decodes. The coordinator copies it into
	// every WorkerSpec and the Result and never looks inside; what it
	// does use travels beside it. Format is the result format (run-file
	// extensions, the merge's row parser). Fingerprints is the checkpoint
	// fingerprint expected of each shard, one per worker.
	Scan         json.RawMessage
	Format       string
	Fingerprints []checkpoint.Fingerprint

	// RateBudget is the aggregate probes/sec across the whole fleet
	// (0 = unlimited, no redistribution). Live workers share it
	// equally; when one dies its share moves to the survivors, and
	// moves back when the shard respawns.
	RateBudget float64

	// LeaseTTL is how stale a worker's heartbeat may go before the
	// coordinator declares it dead and reclaims the shard (default
	// 2s). HeartbeatInterval is the worker's renewal cadence (default
	// LeaseTTL/4).
	LeaseTTL          time.Duration
	HeartbeatInterval time.Duration

	// CheckpointInterval is the workers' snapshot cadence (default
	// 500ms); it bounds the work re-done after a crash.
	CheckpointInterval time.Duration

	// RatePollInterval is how often workers re-read their rate file
	// (default 100ms).
	RatePollInterval time.Duration

	// MaxRespawns bounds per-shard reclaim-respawn cycles (0 =
	// default 5; negative = none allowed). RespawnBackoff is the
	// first reclaim's delay, doubled per consecutive reclaim up to
	// RespawnBackoffMax (defaults 100ms / 2s).
	MaxRespawns       int
	RespawnBackoff    time.Duration
	RespawnBackoffMax time.Duration

	// Faults optionally injects a deterministic chaos schedule into
	// the running fleet (kill/hang/slow, see FaultPlan).
	Faults *FaultPlan

	// Plane is the coordinator↔worker control plane (nil = the
	// filesystem plane, byte-compatible with pre-network fleet dirs).
	// The network plane lives in internal/fleetnet and is wired in by
	// zmap.RunFleet when a listen address is configured.
	Plane ControlPlane

	// RemoteWorkers disables local worker spawning: each grant is
	// offered through the plane (which must implement RemotePlane) and
	// executed by a joined `fleet-worker` process, supervised through
	// its lease renewals alone.
	RemoteWorkers bool

	// MergedOutput is the merged result path (default
	// <Dir>/merged.<ext>). MetadataPath receives the fleet-level
	// summary document (default <Dir>/fleet-metadata.json). TracePath
	// receives the coordinator's decision journal as JSONL (default
	// <Dir>/fleet-trace.jsonl; "-" disables).
	MergedOutput string
	MetadataPath string
	TracePath    string

	// Metrics optionally supplies the registry fleet gauges/counters
	// record into; nil creates a private one.
	Metrics *metrics.Registry
	// Logger receives structured coordinator logs; nil discards.
	Logger *slog.Logger
}

// ShardResult summarizes one shard's supervision history.
type ShardResult struct {
	Shard int `json:"shard"`
	// Epochs is the total number of lease grants (1 = no reclaim).
	Epochs int `json:"epochs"`
	// Reclaims counts lease reclaims (crash, hang, fence).
	Reclaims int `json:"reclaims"`
	// Adopted is true when the coordinator attached to a live worker
	// it did not spawn.
	Adopted bool `json:"adopted,omitempty"`
	// Summary is the completing run's end-of-scan metadata.
	Summary *output.Metadata `json:"summary,omitempty"`
}

// Result is the fleet-level scan summary: the union of per-shard
// metadata plus the coordinator's own supervision and merge accounting.
// It is also the document written to Config.MetadataPath.
type Result struct {
	FleetID string          `json:"fleet_id"`
	Workers int             `json:"workers"`
	Scan    json.RawMessage `json:"scan"`

	StartTime    time.Time `json:"start_time"`
	EndTime      time.Time `json:"end_time"`
	DurationSecs float64   `json:"duration_secs"`

	MergedOutput string     `json:"merged_output"`
	Merge        MergeStats `json:"merge"`

	Reclaims       int `json:"reclaims"`
	FaultsInjected int `json:"faults_injected"`
	RateReallocs   int `json:"rate_reallocs"`

	// Aggregated engine counters across the final run of every shard.
	TargetsScanned uint64 `json:"targets_scanned"`
	PacketsSent    uint64 `json:"packets_sent"`
	PacketsRecv    uint64 `json:"packets_received"`
	UniqueSucc     uint64 `json:"unique_successes"`

	// Quarantined unions every shard's interference-quarantine log.
	Quarantined []output.QuarantinedPrefix `json:"quarantined_prefixes,omitempty"`

	Shards []ShardResult `json:"shards"`
}

// supervision outcomes for one worker epoch.
type outcome int

const (
	outDone outcome = iota
	outCrash
	outHang
	outFenced
	outConfig
	outFingerprint
	outCanceled
)

func (o outcome) String() string {
	switch o {
	case outDone:
		return "done"
	case outCrash:
		return "crash"
	case outHang:
		return "hang"
	case outFenced:
		return "fenced"
	case outConfig:
		return "config"
	case outFingerprint:
		return "fingerprint"
	default:
		return "canceled"
	}
}

type coordinator struct {
	cfg     Config
	log     *slog.Logger
	jr      *trace.Recorder
	plane   ControlPlane
	start   time.Time
	fleetID string
	sups    []*supervisor

	mu       sync.Mutex
	alive    []bool
	reallocs int

	// metrics
	workersAlive *metrics.Gauge
	workerUp     []*metrics.Gauge
	rateAlloc    []*metrics.Gauge
	reclaimsM    []*metrics.Counter
	faultsM      map[FaultKind]*metrics.Counter
	faults       atomic.Int64
}

type supervisor struct {
	c     *coordinator
	shard int
	pid   atomic.Int64 // current worker pid; 0 when none
	res   ShardResult
}

func (c *Config) applyDefaults() error {
	if c.Workers <= 0 {
		return fmt.Errorf("fleet: need at least 1 worker, have %d", c.Workers)
	}
	if c.Dir == "" {
		return errors.New("fleet: Config.Dir is required")
	}
	if len(c.Fingerprints) != c.Workers {
		return fmt.Errorf("fleet: %d fingerprints for %d workers", len(c.Fingerprints), c.Workers)
	}
	if c.Binary == "" {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("fleet: no Binary and os.Executable failed: %w", err)
		}
		c.Binary = exe
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.LeaseTTL / 4
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 500 * time.Millisecond
	}
	if c.RatePollInterval <= 0 {
		c.RatePollInterval = 100 * time.Millisecond
	}
	switch {
	case c.MaxRespawns == 0:
		c.MaxRespawns = 5
	case c.MaxRespawns < 0:
		c.MaxRespawns = 0
	}
	if c.RespawnBackoff <= 0 {
		c.RespawnBackoff = 100 * time.Millisecond
	}
	if c.RespawnBackoffMax <= 0 {
		c.RespawnBackoffMax = 2 * time.Second
	}
	if c.Plane == nil {
		c.Plane = NewFSControlPlane()
	}
	if c.RemoteWorkers {
		if _, ok := c.Plane.(RemotePlane); !ok {
			return fmt.Errorf("fleet: RemoteWorkers requires a remote-capable control plane, have %q", c.Plane.Name())
		}
	}
	if c.MergedOutput == "" {
		c.MergedOutput = filepath.Join(c.Dir, "merged."+outputExt(c.Format))
	}
	if c.MetadataPath == "" {
		c.MetadataPath = filepath.Join(c.Dir, "fleet-metadata.json")
	}
	if c.TracePath == "" {
		c.TracePath = filepath.Join(c.Dir, "fleet-trace.jsonl")
	}
	return nil
}

// Run executes the fleet: split, spawn, supervise, reclaim, merge. It
// returns when every shard completed (merging their outputs), or with
// the first fatal error (config, fingerprint mismatch, respawn budget).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	for i := 0; i < cfg.Workers; i++ {
		if err := os.MkdirAll(ShardDir(cfg.Dir, i), 0o755); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &coordinator{
		cfg:     cfg,
		log:     logger,
		jr:      trace.New(trace.Config{Shards: 1, SampleEvery: -1}),
		plane:   cfg.Plane,
		start:   time.Now(),
		fleetID: fmt.Sprintf("fleet-%d-%d", os.Getpid(), time.Now().UnixNano()),
		alive:   make([]bool, cfg.Workers),
		workersAlive: reg.Gauge("zmapgo_fleet_workers_alive",
			"Worker processes currently holding a fresh lease."),
		faultsM: map[FaultKind]*metrics.Counter{},
	}
	for _, k := range []FaultKind{FaultKill, FaultHang, FaultSlow} {
		c.faultsM[k] = reg.CounterWith("zmapgo_fleet_faults_injected_total",
			"Chaos faults injected into workers, by kind.", "kind", string(k))
	}
	for i := 0; i < cfg.Workers; i++ {
		lbl := strconv.Itoa(i)
		c.workerUp = append(c.workerUp, reg.GaugeWith("zmapgo_fleet_worker_up",
			"1 while the shard's worker process is supervised as live.", "shard", lbl))
		c.rateAlloc = append(c.rateAlloc, reg.GaugeWith("zmapgo_fleet_rate_allocation_pps",
			"Current slice of the fleet rate budget allocated to the shard.", "shard", lbl))
		c.reclaimsM = append(c.reclaimsM, reg.CounterWith("zmapgo_fleet_reclaims_total",
			"Lease reclaims (worker crash, hang, or fence), by shard.", "shard", lbl))
		c.sups = append(c.sups, &supervisor{c: c, shard: i, res: ShardResult{Shard: i}})
	}

	c.journal(trace.JEntry{Kind: trace.JFleetStart, Name: c.fleetID,
		Detail: fmt.Sprintf("workers=%d seed=%d budget=%.0fpps ttl=%s plane=%s",
			cfg.Workers, cfg.Fingerprints[0].Seed, cfg.RateBudget, cfg.LeaseTTL, c.plane.Name())})
	defer c.dumpTrace()

	if err := c.plane.Start(PlaneInfo{
		Dir:      cfg.Dir,
		Workers:  cfg.Workers,
		Format:   cfg.Format,
		FleetID:  c.fleetID,
		LeaseTTL: cfg.LeaseTTL,
		Journal:  c.journal,
		Metrics:  reg,
		Logger:   logger,
	}); err != nil {
		return nil, fmt.Errorf("fleet: control plane start: %w", err)
	}
	defer c.plane.Close()

	// Initial rate allocation: everyone is presumed live until their
	// supervisor reports otherwise, so workers start at budget/N.
	c.mu.Lock()
	for i := range c.alive {
		c.alive[i] = true
	}
	c.reallocateLocked("start")
	c.mu.Unlock()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	for i := range c.sups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.sups[i].run(runCtx)
			if errs[i] != nil && !errors.Is(errs[i], context.Canceled) {
				cancel() // one fatal shard takes the fleet down
			}
		}(i)
	}
	if cfg.Faults != nil && len(cfg.Faults.Events) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.injectFaults(runCtx)
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	return c.merge(reg)
}

// merge unions the per-shard run files and builds the fleet Result.
func (c *coordinator) merge(reg *metrics.Registry) (*Result, error) {
	files, err := RunFiles(c.cfg.Dir, c.cfg.Workers, c.cfg.Format)
	if err != nil {
		return nil, err
	}
	out, err := os.Create(c.cfg.MergedOutput)
	if err != nil {
		return nil, fmt.Errorf("fleet: merged output: %w", err)
	}
	stats, merr := MergeOutputs(c.cfg.Format, files, out)
	if cerr := out.Close(); merr == nil {
		merr = cerr
	}
	if merr != nil {
		return nil, merr
	}
	reg.Counter("zmapgo_fleet_merged_rows_total",
		"Unique result rows in the merged fleet output.").Add(uint64(stats.UniqueRows))
	reg.Counter("zmapgo_fleet_merge_duplicates_total",
		"Duplicate rows collapsed by the exactly-once merge.").Add(uint64(stats.Duplicates))
	c.journal(trace.JEntry{Kind: trace.JFleetMerge,
		Detail: fmt.Sprintf("files=%d rows=%d unique=%d dups=%d",
			stats.Files, stats.RowsRead, stats.UniqueRows, stats.Duplicates)})

	end := time.Now()
	res := &Result{
		FleetID:      c.fleetID,
		Workers:      c.cfg.Workers,
		Scan:         c.cfg.Scan,
		StartTime:    c.start,
		EndTime:      end,
		DurationSecs: end.Sub(c.start).Seconds(),
		MergedOutput: c.cfg.MergedOutput,
		Merge:        stats,
	}
	for _, s := range c.sups {
		res.Shards = append(res.Shards, s.res)
		res.Reclaims += s.res.Reclaims
		if m := s.res.Summary; m != nil {
			res.TargetsScanned += m.TargetsScanned
			res.PacketsSent += m.PacketsSent
			res.PacketsRecv += m.PacketsRecv
			res.UniqueSucc += m.UniqueSucc
			res.Quarantined = append(res.Quarantined, m.QuarantinedPrefixes...)
		}
	}
	res.FaultsInjected = int(c.faults.Load())
	c.mu.Lock()
	res.RateReallocs = c.reallocs
	c.mu.Unlock()

	c.journal(trace.JEntry{Kind: trace.JFleetDone,
		Detail: fmt.Sprintf("reclaims=%d unique=%d dups=%d wall=%.2fs",
			res.Reclaims, stats.UniqueRows, stats.Duplicates, res.DurationSecs)})

	if c.cfg.MetadataPath != "" && c.cfg.MetadataPath != "-" {
		doc, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(c.cfg.MetadataPath, append(doc, '\n'), 0o644)
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: metadata: %w", err)
		}
	}
	return res, nil
}

func (c *coordinator) journal(e trace.JEntry) {
	c.jr.Journal(e)
}

func (c *coordinator) dumpTrace() {
	if c.cfg.TracePath == "" || c.cfg.TracePath == "-" {
		return
	}
	f, err := os.Create(c.cfg.TracePath)
	if err != nil {
		c.log.Warn("fleet trace dump failed", "err", err)
		return
	}
	defer f.Close()
	if err := c.jr.Snapshot().WriteJSONL(f); err != nil {
		c.log.Warn("fleet trace dump failed", "err", err)
	}
}

// setAlive flips one shard's liveness and, when a rate budget is set,
// redistributes it across the survivors: a dead worker's slice moves to
// the live ones immediately and moves back once the shard respawns.
func (c *coordinator) setAlive(shard int, up bool, reason string) {
	c.mu.Lock()
	if c.alive[shard] == up {
		c.mu.Unlock()
		return
	}
	c.alive[shard] = up
	share, n := c.reallocateLocked(reason)
	c.mu.Unlock()

	if up {
		c.workerUp[shard].Set(1)
	} else {
		c.workerUp[shard].Set(0)
	}
	c.workersAlive.Set(float64(n))
	if c.cfg.RateBudget > 0 {
		c.journal(trace.JEntry{Kind: trace.JFleetRateRealloc, Index: shard,
			Reason: reason, RatePPS: share,
			Detail: fmt.Sprintf("alive=%d budget=%.0f", n, c.cfg.RateBudget)})
	}
}

// reallocateLocked rewrites every live shard's rate file with an equal
// share of the budget. Callers hold c.mu.
func (c *coordinator) reallocateLocked(reason string) (share float64, alive int) {
	for _, a := range c.alive {
		if a {
			alive++
		}
	}
	if c.cfg.RateBudget <= 0 {
		return 0, alive
	}
	if alive > 0 {
		share = c.cfg.RateBudget / float64(alive)
	}
	c.reallocs++
	for i, a := range c.alive {
		if !a {
			c.rateAlloc[i].Set(0)
			continue
		}
		c.rateAlloc[i].Set(share)
		path := PathsFor(c.cfg.Dir, i, 1, c.cfg.Format).Rate
		if err := writeRateFileRetry(path, share); err != nil {
			// A silently lost write here would strand part of the fleet
			// budget: a dead worker's slice never reaches the survivors
			// (or a respawn keeps an inflated share). Journal it as a
			// first-class decision so the loss is attributable, and keep
			// the gauge at the intended value — the next realloc retries.
			c.log.Warn("rate file write failed after retries", "shard", i, "err", err)
			c.journal(trace.JEntry{Kind: trace.JFleetRateLost, Index: i,
				Reason: reason, RatePPS: share,
				Detail: fmt.Sprintf("attempts=%d err=%v", rateWriteAttempts, err)})
		}
	}
	c.log.Debug("rate reallocated", "reason", reason, "alive", alive, "share", share)
	return share, alive
}

// rateWriteAttempts bounds the per-shard retry of a failed rate-file
// publication (transient ENOSPC/EACCES flaps on network filesystems).
const rateWriteAttempts = 4

// writeRateFileRetry publishes a rate cap with a short bounded backoff;
// the caller journals the final failure.
func writeRateFileRetry(path string, pps float64) error {
	backoff := 2 * time.Millisecond
	var err error
	for attempt := 0; attempt < rateWriteAttempts; attempt++ {
		if err = writeRateFile(path, pps); err == nil {
			return nil
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	return err
}

// writeRateFile publishes a rate cap atomically (tiny advisory file;
// rename keeps readers from seeing a torn value).
func writeRateFile(path string, pps float64) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("%g\n", pps)), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadRateFile reads a cap published by the coordinator; workers poll
// it. Returns 0 (no cap) when the file is missing or unparseable.
func ReadRateFile(path string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(trimSpaceBytes(data)), 64)
	if err != nil || v < 0 {
		return 0
	}
	return v
}

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r' || b[len(b)-1] == ' ') {
		b = b[:len(b)-1]
	}
	for len(b) > 0 && b[0] == ' ' {
		b = b[1:]
	}
	return b
}

// injectFaults replays the chaos schedule against the live fleet.
func (c *coordinator) injectFaults(ctx context.Context) {
	for _, ev := range c.cfg.Faults.sorted() {
		delay := time.Until(c.start.Add(ev.After))
		if delay > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(delay):
			}
		}
		if ev.Shard < 0 || ev.Shard >= len(c.sups) {
			c.journal(trace.JEntry{Kind: trace.JFleetFault, Index: ev.Shard,
				Name: string(ev.Kind), Reason: "no_such_shard", Detail: ev.String()})
			continue
		}
		pid := int(c.sups[ev.Shard].pid.Load())
		if pid == 0 {
			c.journal(trace.JEntry{Kind: trace.JFleetFault, Index: ev.Shard,
				Name: string(ev.Kind), Reason: "no_worker", Detail: ev.String()})
			continue
		}
		switch ev.Kind {
		case FaultKill:
			syscall.Kill(pid, syscall.SIGKILL)
		case FaultHang:
			syscall.Kill(pid, syscall.SIGSTOP)
		case FaultSlow:
			syscall.Kill(pid, syscall.SIGSTOP)
			select {
			case <-ctx.Done():
				syscall.Kill(pid, syscall.SIGCONT)
				return
			case <-time.After(ev.Duration):
			}
			syscall.Kill(pid, syscall.SIGCONT)
		}
		c.faults.Add(1)
		c.faultsM[ev.Kind].Inc()
		c.journal(trace.JEntry{Kind: trace.JFleetFault, Index: ev.Shard,
			Name: string(ev.Kind), Reason: "injected",
			Detail: fmt.Sprintf("%s pid=%d", ev.String(), pid)})
		c.log.Info("fault injected", "shard", ev.Shard, "kind", ev.Kind, "pid", pid)
	}
}

// leasePathFor is the epoch-independent lease location of a shard.
func (c *coordinator) leasePathFor(shard int) string {
	return PathsFor(c.cfg.Dir, shard, 1, c.cfg.Format).Lease
}

// run supervises one shard to completion: adopt or spawn, monitor the
// lease, reclaim and respawn with bounded backoff on failure.
func (s *supervisor) run(ctx context.Context) error {
	c := s.c
	epoch := 0
	backoff := c.cfg.RespawnBackoff

	paths1 := PathsFor(c.cfg.Dir, s.shard, 1, c.cfg.Format)

	// Pre-existing durable state: a lease left by a previous
	// coordinator (or a crashed one). Adopt, skip, or reclaim it.
	if l, err := checkpoint.LoadLease(paths1.Lease); err == nil {
		if verr := (&checkpoint.Snapshot{Fingerprint: l.Fingerprint}).Verify(c.cfg.Fingerprints[s.shard]); verr != nil {
			return fmt.Errorf("fleet: shard %d lease belongs to a different scan: %w", s.shard, verr)
		}
		epoch = l.Epoch
		donePaths := PathsFor(c.cfg.Dir, s.shard, l.Epoch, c.cfg.Format)
		switch {
		case fileExists(donePaths.Metadata):
			// Shard finished under a previous coordinator. The metadata
			// file is the one commit record; the lease's done-mark is
			// only an optimization, and a worker whose done-mark write
			// failed must still be adopted as finished, never re-scanned.
			detail := ""
			if l.State != checkpoint.LeaseDone {
				detail = fmt.Sprintf("commit record present, lease state %q (done-mark lost)", l.State)
			}
			s.res.Epochs = epoch
			s.res.Summary = loadShardSummary(donePaths.Metadata)
			c.setAlive(s.shard, false, "already_done")
			c.journal(trace.JEntry{Kind: trace.JFleetAdopt, Index: s.shard,
				Name: l.WorkerID, Reason: "already_done", Detail: detail})
			return nil
		case pidAlive(l.OwnerPID) && !l.Expired(time.Now()):
			// A live worker from a previous coordinator still holds
			// the lease: adopt it instead of double-granting.
			s.res.Adopted = true
			s.pid.Store(int64(l.OwnerPID))
			c.setAlive(s.shard, true, "adopt")
			c.journal(trace.JEntry{Kind: trace.JFleetAdopt, Index: s.shard,
				Name: l.WorkerID, Reason: "live_worker",
				Detail: fmt.Sprintf("pid=%d epoch=%d", l.OwnerPID, l.Epoch)})
			out := s.monitorAdopted(ctx, l, donePaths)
			s.pid.Store(0)
			c.setAlive(s.shard, false, out.String())
			switch out {
			case outDone:
				s.res.Epochs = epoch
				s.res.Summary = loadShardSummary(donePaths.Metadata)
				return nil
			case outCanceled:
				return ctx.Err()
			default:
				if err := s.noteReclaim(ctx, out, &backoff); err != nil {
					return err
				}
			}
		default:
			// Stale lease: the owner is gone. The normal spawn path
			// below reclaims by granting the next epoch.
			c.journal(trace.JEntry{Kind: trace.JFleetLeaseExpired, Index: s.shard,
				Name: l.WorkerID, Reason: "stale_at_start",
				Detail: fmt.Sprintf("pid=%d renewed=%s", l.OwnerPID, l.RenewedAt.Format(time.RFC3339))})
		}
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Resume from the shard checkpoint when one exists — after
		// verifying it describes this exact slice of this exact scan.
		resume := false
		if snap, err := checkpoint.Load(paths1.Checkpoint); err == nil {
			if verr := snap.Verify(c.cfg.Fingerprints[s.shard]); verr != nil {
				return fmt.Errorf("fleet: shard %d checkpoint rejected on handoff: %w", s.shard, verr)
			}
			resume = true
		}
		epoch++
		out, err := s.runEpoch(ctx, epoch, resume)
		if err != nil {
			return err
		}
		switch out {
		case outDone:
			s.res.Epochs = epoch
			return nil
		case outCanceled:
			return ctx.Err()
		case outConfig:
			return fmt.Errorf("fleet: shard %d worker rejected its config (exit %d); not respawning", s.shard, ExitConfig)
		case outFingerprint:
			return fmt.Errorf("fleet: shard %d worker refused checkpoint handoff: %w", s.shard, ErrFingerprintMismatch)
		default: // crash, hang, fence: reclaim and retry
			if err := s.noteReclaim(ctx, out, &backoff); err != nil {
				return err
			}
		}
	}
}

// noteReclaim journals one reclaim decision, enforces the respawn
// budget, and sleeps the bounded exponential backoff.
func (s *supervisor) noteReclaim(ctx context.Context, out outcome, backoff *time.Duration) error {
	c := s.c
	s.res.Reclaims++
	c.reclaimsM[s.shard].Inc()
	c.journal(trace.JEntry{Kind: trace.JFleetReclaim, Index: s.shard,
		Reason: out.String(),
		Detail: fmt.Sprintf("reclaim=%d backoff=%s", s.res.Reclaims, *backoff)})
	if s.res.Reclaims > c.cfg.MaxRespawns {
		return fmt.Errorf("fleet: shard %d died %d times (budget %d): %w",
			s.shard, s.res.Reclaims, c.cfg.MaxRespawns, ErrRespawnsExhausted)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(*backoff):
	}
	*backoff *= 2
	if *backoff > c.cfg.RespawnBackoffMax {
		*backoff = c.cfg.RespawnBackoffMax
	}
	return nil
}

// runEpoch grants the lease, spawns the worker, and supervises it until
// it exits or its lease expires. The returned error is fatal (infra or
// context); failures the reclaim loop handles come back as outcomes.
func (s *supervisor) runEpoch(ctx context.Context, epoch int, resume bool) (outcome, error) {
	c := s.c
	paths := PathsFor(c.cfg.Dir, s.shard, epoch, c.cfg.Format)
	spec := &WorkerSpec{
		FleetID:            c.fleetID,
		Shard:              s.shard,
		Shards:             c.cfg.Workers,
		Epoch:              epoch,
		Scan:               c.cfg.Scan,
		Resume:             resume,
		Paths:              paths,
		LeaseTTL:           c.cfg.LeaseTTL,
		CheckpointInterval: c.cfg.CheckpointInterval,
		HeartbeatInterval:  c.cfg.HeartbeatInterval,
		RatePollInterval:   c.cfg.RatePollInterval,
	}
	// Grant: bump the epoch (durably, through the plane) before the
	// worker exists, so a fenced straggler from the previous epoch can
	// never renew again. The plane writes the spec before the lease.
	now := time.Now()
	lease := &checkpoint.Lease{
		FleetID:     c.fleetID,
		ShardIndex:  s.shard,
		Epoch:       epoch,
		WorkerID:    spec.WorkerID(),
		State:       checkpoint.LeaseGranted,
		GrantedAt:   now,
		RenewedAt:   now,
		TTLSecs:     c.cfg.LeaseTTL.Seconds(),
		Fingerprint: c.cfg.Fingerprints[s.shard],
	}
	if err := c.plane.Grant(spec, lease); err != nil {
		return outCrash, err
	}

	if c.cfg.RemoteWorkers {
		return s.runRemoteEpoch(ctx, spec, paths), nil
	}

	logf, err := os.OpenFile(filepath.Join(paths.Dir, "worker.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return outCrash, err
	}
	cmd := exec.Command(c.cfg.Binary)
	cmd.Env = append(os.Environ(), c.plane.WorkerEnv(spec)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return outCrash, fmt.Errorf("fleet: spawn shard %d: %w", s.shard, err)
	}
	logf.Close()
	pid := cmd.Process.Pid
	s.pid.Store(int64(pid))
	c.setAlive(s.shard, true, "spawn")
	kind := trace.JFleetSpawn
	if epoch > 1 {
		kind = trace.JFleetRespawn
	}
	c.journal(trace.JEntry{Kind: kind, Index: s.shard, Name: spec.WorkerID(),
		Detail: fmt.Sprintf("pid=%d resume=%t", pid, resume)})
	c.log.Info("worker spawned", "shard", s.shard, "epoch", epoch, "pid", pid, "resume", resume)

	exitCh := make(chan error, 1)
	go func() { exitCh <- cmd.Wait() }()

	out := s.monitorSpawned(ctx, pid, epoch, exitCh, paths)
	s.pid.Store(0)
	c.setAlive(s.shard, false, out.String())
	return out, nil
}

// runRemoteEpoch supervises a grant executed by a worker process this
// coordinator did not spawn (`fleet-worker --join`): the grant is
// offered through the plane's acquire queue and the shard is judged
// entirely on durable protocol state — lease renewals arriving over the
// control plane, the epoch's commit record, and best-effort exit
// reports. There is no pid to kill: reclaim is pure fencing (the next
// grant bumps the epoch server-side, so every late RPC from the old
// worker is rejected, and a partitioned worker self-fences once it
// cannot renew within one lease TTL).
func (s *supervisor) runRemoteEpoch(ctx context.Context, spec *WorkerSpec, paths WorkerPaths) outcome {
	c := s.c
	rp := c.plane.(RemotePlane) // validated in applyDefaults
	rp.Offer(spec)
	c.setAlive(s.shard, true, "offer")
	c.journal(trace.JEntry{Kind: trace.JFleetOffer, Index: s.shard, Name: spec.WorkerID(),
		Reason: "grant", Detail: fmt.Sprintf("epoch=%d resume=%t", spec.Epoch, spec.Resume)})

	interval := c.cfg.LeaseTTL / 4
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	reofferAfter := 5 * c.cfg.LeaseTTL
	tick := time.NewTicker(interval)
	defer tick.Stop()
	offered := time.Now()
	out := func() outcome {
		for {
			select {
			case <-ctx.Done():
				return outCanceled
			case <-tick.C:
				if fileExists(paths.Metadata) {
					s.res.Summary = loadShardSummary(paths.Metadata)
					c.journal(trace.JEntry{Kind: trace.JFleetWorkerDone, Index: s.shard,
						Name: spec.WorkerID(), Reason: "remote"})
					return outDone
				}
				if code, ok := rp.TakeExit(s.shard, spec.Epoch); ok {
					return s.classifyExitCode(code, nil, paths)
				}
				l, err := checkpoint.LoadLease(paths.Lease)
				if err != nil || l.Epoch != spec.Epoch {
					continue
				}
				switch {
				case l.State == checkpoint.LeaseRunning && l.Expired(time.Now()):
					c.journal(trace.JEntry{Kind: trace.JFleetLeaseExpired, Index: s.shard,
						Name: l.WorkerID, Reason: "heartbeat_stale_remote",
						Detail: fmt.Sprintf("stale=%s ttl=%s",
							time.Since(l.RenewedAt).Round(time.Millisecond), l.TTL())})
					return outHang
				case l.State == checkpoint.LeaseGranted && time.Since(offered) > reofferAfter:
					// Nobody adopted the grant: either no worker has
					// joined yet, or the acquirer died before its first
					// renewal. Re-offering the same epoch is idempotent —
					// worst case two workers race to adopt one epoch,
					// both may scan, and the merge dedups the overlap.
					rp.Offer(spec)
					offered = time.Now()
					c.journal(trace.JEntry{Kind: trace.JFleetOffer, Index: s.shard,
						Name: spec.WorkerID(), Reason: "reoffer"})
				}
			}
		}
	}()
	c.setAlive(s.shard, false, out.String())
	return out
}

// monitorSpawned watches one spawned worker: its process exit and its
// lease freshness. A heartbeat stale past the TTL means the worker is
// wedged even though the process may be alive (e.g. SIGSTOP); the
// coordinator kills it first — so a zombie can never keep probing — and
// reports a hang for the reclaim loop.
func (s *supervisor) monitorSpawned(ctx context.Context, pid, epoch int, exitCh <-chan error, paths WorkerPaths) outcome {
	c := s.c
	interval := c.cfg.LeaseTTL / 4
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case werr := <-exitCh:
			return s.classifyExit(werr, paths)
		case <-tick.C:
			l, lerr := checkpoint.LoadLease(paths.Lease)
			if lerr != nil || l.Epoch != epoch || l.State == checkpoint.LeaseDone {
				continue
			}
			if l.Expired(time.Now()) {
				c.journal(trace.JEntry{Kind: trace.JFleetLeaseExpired, Index: s.shard,
					Name: l.WorkerID, Reason: "heartbeat_stale",
					Detail: fmt.Sprintf("pid=%d stale=%s ttl=%s", pid,
						time.Since(l.RenewedAt).Round(time.Millisecond), l.TTL())})
				c.log.Warn("lease expired, killing worker", "shard", s.shard, "pid", pid)
				syscall.Kill(pid, syscall.SIGKILL)
				<-exitCh // reap
				return outHang
			}
		case <-ctx.Done():
			syscall.Kill(pid, syscall.SIGKILL)
			<-exitCh
			return outCanceled
		}
	}
}

// monitorAdopted watches a worker this coordinator did not spawn: no
// Wait channel, so liveness is polled alongside the lease.
func (s *supervisor) monitorAdopted(ctx context.Context, l *checkpoint.Lease, paths WorkerPaths) outcome {
	c := s.c
	pid := l.OwnerPID
	interval := c.cfg.LeaseTTL / 4
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if !pidAlive(pid) {
				// Judged on the commit record alone: a worker that died
				// after its metadata rename but before (or during) the
				// lease done-mark still finished.
				if fileExists(paths.Metadata) {
					c.journal(trace.JEntry{Kind: trace.JFleetWorkerDone, Index: s.shard,
						Name: l.WorkerID, Reason: "adopted"})
					return outDone
				}
				c.journal(trace.JEntry{Kind: trace.JFleetWorkerExit, Index: s.shard,
					Name: l.WorkerID, Reason: "adopted_died", Detail: fmt.Sprintf("pid=%d", pid)})
				return outCrash
			}
			if cur, err := checkpoint.LoadLease(paths.Lease); err == nil &&
				cur.Epoch == l.Epoch && cur.Expired(time.Now()) {
				c.journal(trace.JEntry{Kind: trace.JFleetLeaseExpired, Index: s.shard,
					Name: l.WorkerID, Reason: "heartbeat_stale_adopted"})
				syscall.Kill(pid, syscall.SIGKILL)
				return outHang
			}
		case <-ctx.Done():
			syscall.Kill(pid, syscall.SIGKILL)
			return outCanceled
		}
	}
}

// classifyExit maps a worker's exit status to a supervision outcome.
// Completion is judged by the metadata file, not the exit code alone:
// its atomic write is the worker's commit record.
func (s *supervisor) classifyExit(waitErr error, paths WorkerPaths) outcome {
	code := 0
	if waitErr != nil {
		var ee *exec.ExitError
		if errors.As(waitErr, &ee) {
			code = ee.ExitCode() // -1 when signal-killed
		} else {
			code = -1
		}
	}
	return s.classifyExitCode(code, waitErr, paths)
}

// classifyExitCode is the shared exit-status judgment for spawned
// workers (status from Wait) and remote joined workers (status from a
// best-effort exit-report RPC).
func (s *supervisor) classifyExitCode(code int, waitErr error, paths WorkerPaths) outcome {
	c := s.c
	switch code {
	case ExitOK:
		if fileExists(paths.Metadata) {
			s.res.Summary = loadShardSummary(paths.Metadata)
			c.journal(trace.JEntry{Kind: trace.JFleetWorkerDone, Index: s.shard})
			return outDone
		}
		c.journal(trace.JEntry{Kind: trace.JFleetWorkerExit, Index: s.shard,
			Reason: "exit0_no_metadata"})
		return outCrash
	case ExitConfig:
		c.journal(trace.JEntry{Kind: trace.JFleetWorkerExit, Index: s.shard, Reason: "config"})
		return outConfig
	case ExitFingerprint:
		c.journal(trace.JEntry{Kind: trace.JFleetWorkerExit, Index: s.shard, Reason: "fingerprint"})
		return outFingerprint
	case ExitFenced:
		// Distinguish the two fencing causes in the journal: a lease
		// superseded by a re-grant stays freshly renewed by its new
		// owner, while a worker that self-fenced behind a partition
		// leaves its own lease stale.
		if l, err := checkpoint.LoadLease(paths.Lease); err == nil && l.Expired(time.Now()) {
			c.journal(trace.JEntry{Kind: trace.JFleetSelfFence, Index: s.shard,
				Name: l.WorkerID, Reason: "renewals_stale",
				Detail: fmt.Sprintf("last renewal %s", l.RenewedAt.Format(time.RFC3339))})
		}
		c.journal(trace.JEntry{Kind: trace.JFleetWorkerExit, Index: s.shard, Reason: "fenced"})
		return outFenced
	default:
		c.journal(trace.JEntry{Kind: trace.JFleetWorkerExit, Index: s.shard,
			Reason: "crash", Detail: fmt.Sprintf("exit=%d err=%v", code, waitErr)})
		return outCrash
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

func loadShardSummary(path string) *output.Metadata {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var m output.Metadata
	if err := json.Unmarshal(data, &m); err != nil {
		return nil
	}
	return &m
}
