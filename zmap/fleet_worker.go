package zmap

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
	"zmapgo/internal/fleetnet"
)

// FleetWorkerMain is the worker-process hook for fleet scans. Any
// binary that may host RunFleet must call it at the top of main():
//
//	func main() {
//		if zmap.FleetWorkerMain() {
//			return // unreachable; the worker exits itself
//		}
//		...normal entry point...
//	}
//
// In the parent (no worker environment present) it returns false
// immediately. In a worker child process — spawned by a fleet
// coordinator with either the spec path (filesystem plane) or the join
// URL plus shard/epoch (network plane) in the environment — it runs the
// assigned shard to completion and exits with one of the fleet exit
// codes, never returning.
func FleetWorkerMain() bool {
	if specPath := os.Getenv(fleet.WorkerSpecEnv); specPath != "" {
		os.Exit(runFleetWorker(specPath))
		return true
	}
	if join := os.Getenv(fleetnet.JoinEnv); join != "" {
		os.Exit(runFleetWorkerNet(join))
		return true
	}
	return false
}

// runFleetWorker executes one shard over the filesystem plane: load the
// spec from disk and run against the shard directory directly.
func runFleetWorker(specPath string) int {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	spec, err := fleet.LoadWorkerSpec(specPath)
	if err != nil {
		logger.Error("fleet worker: bad spec", "err", err)
		return fleet.ExitConfig
	}
	logger = logger.With("worker", spec.WorkerID())
	return runFleetWorkerPlane(spec, fleet.NewFSWorkerPlane(spec, logger), logger)
}

// runFleetWorkerNet executes one shard over the network plane: dial the
// coordinator named in the environment, fetch the grant, and run
// against a local spool that the plane ships upstream.
func runFleetWorkerNet(joinURL string) int {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	shard, err1 := strconv.Atoi(os.Getenv(fleetnet.ShardEnv))
	epoch, err2 := strconv.Atoi(os.Getenv(fleetnet.EpochEnv))
	if err1 != nil || err2 != nil {
		logger.Error("fleet worker: bad shard/epoch environment")
		return fleet.ExitConfig
	}
	client, err := fleetnet.Dial(joinURL, os.Getenv(fleetnet.TokenEnv), shard, epoch, logger)
	if err != nil {
		if errors.Is(err, checkpoint.ErrLeaseFenced) {
			logger.Warn("grant already superseded; exiting", "err", err)
			return fleet.ExitFenced
		}
		// The coordinator may be mid-hiccup or partitioned; this is
		// circumstantial, so exit respawnable.
		logger.Error("fleet worker: join failed", "err", err)
		return fleet.ExitCrash
	}
	defer client.Close()
	spec := client.Spec()
	logger = logger.With("worker", spec.WorkerID(), "plane", "http")
	return runFleetWorkerPlane(spec, client, logger)
}

// runFleetWorkerPlane is the transport-agnostic worker runtime: adopt
// the lease (first renewal, epoch-fenced), heartbeat with a self-fence
// clock, scan with periodic checkpoints and syncs, honor the live rate
// cap, and commit through the plane.
func runFleetWorkerPlane(spec *fleet.WorkerSpec, plane fleet.WorkerPlane, logger *slog.Logger) int {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	scan, err := decodeFleetScan(spec.Scan)
	if err != nil {
		logger.Error("fleet worker: bad scan document", "err", err)
		return fleet.ExitConfig
	}
	pid := os.Getpid()
	hbInterval := spec.HeartbeatInterval
	if hbInterval <= 0 {
		hbInterval = 500 * time.Millisecond
	}
	ratePoll := spec.RatePollInterval
	if ratePoll <= 0 {
		ratePoll = 100 * time.Millisecond
	}
	// The self-fence horizon: once renewals have been failing for longer
	// than this, the coordinator must be presumed to have reclaimed the
	// shard, so scanning on would risk two live workers on one slice.
	fenceAfter := spec.LeaseTTL
	if fenceAfter <= 0 {
		fenceAfter = 4 * hbInterval
	}

	// Adopt the lease. The first renewal both proves liveness to the
	// coordinator and fences this worker out if the shard has already
	// been re-granted (stale spawn racing a reclaim).
	if err := plane.Adopt(pid, time.Now()); err != nil {
		if errors.Is(err, checkpoint.ErrLeaseFenced) {
			logger.Warn("lease already re-granted; exiting")
			return fleet.ExitFenced
		}
		logger.Error("fleet worker: lease adopt failed", "err", err)
		return fleet.ExitCrash
	}

	// The heartbeat goroutine may need to stop a scanner that does not
	// exist yet (fencing during compile); it goes through this indirection.
	var stopMu sync.Mutex
	var stopScan func()
	requestStop := func() {
		stopMu.Lock()
		f := stopScan
		stopMu.Unlock()
		if f != nil {
			f()
		}
	}

	// Heartbeat: renew the lease every interval. A fenced renewal means
	// the coordinator re-granted this shard — stop scanning cooperatively
	// (graceful abort, final checkpoint, exit uncommitted) rather than
	// double-scan the slice. Renewals that merely FAIL (partition,
	// coordinator hiccup) are tolerated only until the lease TTL has
	// passed since the failing streak began: past that the coordinator
	// reclaims the shard, so the worker self-fences — the network-split
	// mirror of the coordinator's reclaim decision, which is what keeps
	// at most one same-shard worker live past one TTL.
	var fenced atomic.Bool
	var fenceReason atomic.Value // string
	stopHB := make(chan struct{})
	hbExited := make(chan struct{})
	var hbOnce sync.Once
	stopHeartbeat := func() { hbOnce.Do(func() { close(stopHB) }) }
	defer stopHeartbeat()
	go func() {
		defer close(hbExited)
		t := time.NewTicker(hbInterval)
		defer t.Stop()
		var failingSince time.Time
		for {
			select {
			case <-stopHB:
				return
			case <-t.C:
				_, err := plane.Renew(pid, time.Now())
				if err == nil {
					failingSince = time.Time{}
					continue
				}
				if errors.Is(err, checkpoint.ErrLeaseFenced) {
					logger.Warn("lease fenced mid-scan; aborting")
					fenceReason.Store("fenced")
					fenced.Store(true)
					requestStop()
					return
				}
				now := time.Now()
				if failingSince.IsZero() {
					failingSince = now
				}
				if now.Sub(failingSince) > fenceAfter {
					logger.Warn("renewals failing past lease TTL; self-fencing",
						"failing_for", now.Sub(failingSince), "ttl", fenceAfter, "err", err)
					fenceReason.Store("self_fence")
					fenced.Store(true)
					requestStop()
					return
				}
				logger.Warn("heartbeat renewal failed; retrying", "err", err)
			}
		}
	}()

	var resume *Checkpoint
	if spec.Resume {
		snap, lerr := plane.LoadCheckpoint()
		if lerr != nil {
			// An unreachable or corrupt checkpoint only costs re-scanning
			// the shard from zero; at-least-once is preserved and the
			// merge dedups the overlap.
			logger.Warn("resume requested but checkpoint unavailable; starting fresh", "err", lerr)
		} else {
			resume = snap
		}
	}

	out, err := plane.OpenResults()
	if err != nil {
		logger.Error("fleet worker: output stream", "err", err)
		return fleet.ExitConfig
	}

	link := NewInternet(scan.Sim).NewLink(0, scan.SimTimeScale)
	defer link.Close()

	// The scan travels whole, its rate (the full fleet budget) included;
	// only what differs per worker is set here.
	var metaBuf bytes.Buffer
	opts := scan.Options
	opts.Shards, opts.ShardIndex = spec.Shards, spec.Shard
	opts.Results, opts.Metadata = out, &metaBuf
	opts.CheckpointPath, opts.CheckpointInterval = plane.CheckpointPath(), spec.CheckpointInterval
	opts.Resume, opts.Logger = resume, logger
	scanner, err := opts.Compile(link)
	if err != nil {
		if errors.Is(err, ErrCheckpointMismatch) {
			// The checkpoint belongs to a different scan configuration:
			// resuming it would mis-cover the target space. Hard
			// failure, never retried.
			logger.Error("checkpoint fingerprint mismatch on handoff", "err", err)
			out.Close()
			return fleet.ExitFingerprint
		}
		logger.Error("fleet worker: compile", "err", err)
		out.Close()
		return fleet.ExitConfig
	}
	stopMu.Lock()
	stopScan = scanner.Stop
	stopMu.Unlock()
	if fenced.Load() {
		// Fenced while compiling: the stop indirection was not wired yet,
		// so bail before sending a single probe.
		out.Close()
		return fleet.ExitFenced
	}

	// Live rate cap: the coordinator publishes this worker's slice of
	// the fleet budget (rate file on the filesystem plane, piggybacked
	// on heartbeats over the network); poll it into the engine (applied
	// at batch boundaries). Negative means no update yet.
	if r := plane.RateCap(); r >= 0 {
		scanner.SetRateCap(r)
	}
	stopRate := make(chan struct{})
	go func() {
		t := time.NewTicker(ratePoll)
		defer t.Stop()
		for {
			select {
			case <-stopRate:
				return
			case <-t.C:
				if r := plane.RateCap(); r >= 0 {
					scanner.SetRateCap(r)
				}
			}
		}
	}()

	// Sync loop: make the coordinator's durable view (network plane:
	// the server; filesystem plane: no-op) catch up with local results
	// and checkpoints, so a reclaim after a partition resumes from real
	// progress instead of zero.
	syncEvery := spec.CheckpointInterval
	if syncEvery <= 0 {
		syncEvery = time.Second
	}
	stopSync := make(chan struct{})
	syncExited := make(chan struct{})
	go func() {
		defer close(syncExited)
		t := time.NewTicker(syncEvery)
		defer t.Stop()
		for {
			select {
			case <-stopSync:
				return
			case <-t.C:
				if err := plane.Sync(); err != nil && !errors.Is(err, checkpoint.ErrLeaseFenced) {
					logger.Warn("sync failed; retrying next tick", "err", err)
				}
			}
		}
	}()

	// SIGTERM/SIGINT stop gracefully: sending halts, streams flush, a
	// final checkpoint lands, and the run exits uncommitted so the
	// coordinator respawns it to finish from that checkpoint.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigCh
		logger.Info("signal received; stopping gracefully")
		scanner.Stop()
	}()

	summary, runErr := scanner.Run(context.Background())
	signal.Stop(sigCh)
	close(stopRate)
	close(stopSync)
	<-syncExited
	// Wait the heartbeat out before committing: a renewal still in
	// flight while the lease is marked done would rewrite the file and
	// regress the terminal state (lost update through the filesystem).
	stopHeartbeat()
	<-hbExited
	cerr := out.Close()
	if fenced.Load() {
		// The epoch moved on (or must be presumed to have): progress is
		// durable through the last checkpoint/sync, but committing is the
		// new owner's right, not ours.
		reason, _ := fenceReason.Load().(string)
		logger.Warn("exiting uncommitted", "reason", reason)
		return fleet.ExitFenced
	}
	if runErr != nil {
		logger.Error("fleet worker: scan failed", "err", runErr)
		return fleet.ExitCrash
	}
	if cerr != nil {
		logger.Error("fleet worker: output close", "err", cerr)
		return fleet.ExitCrash
	}
	if summary.Interrupted {
		// Graceful interrupt: progress is durable but the shard is not
		// finished, so no commit record is written. The coordinator
		// reclaims and respawns from the final checkpoint.
		logger.Info("interrupted; exiting uncommitted for respawn")
		return fleet.ExitCrash
	}

	// Commit: the metadata document's atomic appearance (local rename or
	// server-side commit RPC) is the shard's completion record.
	if err := plane.Commit(metaBuf.Bytes()); err != nil {
		if errors.Is(err, checkpoint.ErrLeaseFenced) {
			logger.Warn("commit fenced; exiting uncommitted")
			return fleet.ExitFenced
		}
		logger.Error("fleet worker: commit", "err", err)
		return fleet.ExitCrash
	}
	logger.Info("shard complete",
		"unique_successes", summary.UniqueSucc, "sent", summary.PacketsSent)
	return fleet.ExitOK
}

// JoinFleetOptions configures JoinFleet.
type JoinFleetOptions struct {
	// URL is the coordinator's control-plane base URL (http://host:port).
	URL string
	// Token is the fleet join token ("" for open fleets).
	Token string
	// Once makes JoinFleet return after the first completed grant
	// instead of polling for more work.
	Once bool
	// Logger receives worker logs (nil discards).
	Logger *slog.Logger
}

// JoinFleet connects to a fleet coordinator as a remote worker: it
// long-polls the acquire endpoint for offered shard grants, runs each
// granted shard in-process through the network worker plane, reports
// the exit code back, and polls again. It returns when ctx is canceled,
// or with an error once the coordinator has been unreachable for many
// consecutive attempts.
func JoinFleet(ctx context.Context, o JoinFleetOptions) error {
	logger := o.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	consecutiveFailures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		client, err := fleetnet.Acquire(ctx, o.URL, o.Token, 5*time.Second, logger)
		if err != nil {
			if errors.Is(err, fleetnet.ErrNoWork) {
				consecutiveFailures = 0
				continue
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			consecutiveFailures++
			if consecutiveFailures >= 10 {
				return err
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(consecutiveFailures) * 200 * time.Millisecond):
			}
			continue
		}
		consecutiveFailures = 0
		spec := client.Spec()
		wlog := logger.With("worker", spec.WorkerID(), "plane", "http")
		wlog.Info("grant acquired; running shard")
		code := runFleetWorkerPlane(spec, client, wlog)
		client.Close()
		fleetnet.ReportExit(o.URL, o.Token, spec.Shard, spec.Epoch, code)
		wlog.Info("shard run finished", "code", code)
		if o.Once {
			return nil
		}
	}
}
