package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zmapgo/zmap"
)

// runFleet is the `zmapgo fleet` subcommand: one logical scan split into
// --workers pizza shards, each run by a supervised worker process
// (re-executions of this binary, dispatched through FleetWorkerMain),
// with crash recovery from per-shard checkpoints and an exactly-once
// merge of the results.
func runFleet(args []string) int {
	fs := flag.NewFlagSet("zmapgo fleet", flag.ContinueOnError)
	// Every flag is bound to the FleetOptions field it sets; the scan's
	// own flags come from the table `zmapgo` registers too.
	var opts zmap.FleetOptions
	loadScan := scanFlags(fs, &opts.Scan)
	fs.IntVar(&opts.Workers, "workers", 2, "worker processes (= pizza shards)")
	fs.StringVar(&opts.Dir, "fleet-dir", "", "fleet state directory (default: a fresh temp dir; reuse to resume)")
	fs.StringVar(&opts.MergedOutput, "o", "", "merged output file (default <fleet-dir>/merged.<ext>)")
	fs.StringVar(&opts.MetadataPath, "metadata-file", "", "fleet summary JSON (default <fleet-dir>/fleet-metadata.json, - = off)")
	fs.StringVar(&opts.TracePath, "trace-file", "", "coordinator decision journal JSONL (default <fleet-dir>/fleet-trace.jsonl, - = off)")
	fs.DurationVar(&opts.LeaseTTL, "lease-ttl", 0, "worker heartbeat lease TTL; a shard silent this long is reclaimed (0 = 2s)")
	fs.DurationVar(&opts.HeartbeatInterval, "heartbeat-interval", 0, "worker lease renewal period (0 = TTL/4)")
	fs.DurationVar(&opts.CheckpointInterval, "checkpoint-interval", 0, "per-worker checkpoint snapshot period (0 = 500ms)")
	fs.IntVar(&opts.MaxRespawns, "max-respawns", 0, "respawn budget per shard before the fleet fails (0 = default 5, negative = none)")
	fs.DurationVar(&opts.RespawnBackoff, "respawn-backoff", 0, "initial respawn backoff, doubled per reclaim (0 = 100ms)")
	fs.StringVar(&opts.Listen, "listen", "", "serve the control plane over HTTP on this host:port instead of the shared filesystem (port 0 = pick)")
	fs.StringVar(&opts.Advertise, "advertise", "", "control-plane URL published to workers (default http://<bound address>)")
	fs.StringVar(&opts.JoinToken, "join-token", "", "shared token required on every worker RPC (with --listen)")
	fs.BoolVar(&opts.RemoteWorkers, "remote-workers", false, "do not spawn local workers; offer grants to `zmapgo fleet-worker --join` processes (requires --listen)")
	fs.Uint64Var(&opts.Sim.Seed, "sim-seed", 1, "simulated-Internet population seed (identical in every worker)")
	fs.BoolVar(&opts.Sim.Lossless, "sim-lossless", false, "disable simulated packet loss")
	fs.Float64Var(&opts.SimTimeScale, "sim-time-scale", 1e-3, "RTT compression factor for the simulated links")
	var (
		faultPlan   = fs.String("fault-plan", "", "chaos schedule, e.g. kill:0@800ms,hang:1@1.2s,slow:2@500ms/300ms")
		faultSeed   = fs.Uint64("fault-seed", 0, "derive a random fault plan from this seed instead of --fault-plan")
		faultCount  = fs.Int("fault-count", 3, "faults in the derived plan (with --fault-seed)")
		faultWindow = fs.Duration("fault-window", 2*time.Second, "window the derived faults spread over (with --fault-seed)")
		verbose     = fs.Bool("v", false, "verbose coordinator logging to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opts.Scan.Seed == 0 {
		fmt.Fprintln(os.Stderr, "zmapgo fleet: --seed is required and must be non-zero (workers share the permutation it derives)")
		return 2
	}
	if opts.RemoteWorkers && opts.Listen == "" {
		fmt.Fprintln(os.Stderr, "zmapgo fleet: --remote-workers requires --listen")
		return 2
	}
	if err := loadScan(); err != nil {
		fmt.Fprintln(os.Stderr, "zmapgo fleet:", err)
		return 1
	}
	if *faultPlan != "" && *faultSeed != 0 {
		fmt.Fprintln(os.Stderr, "zmapgo fleet: --fault-plan and --fault-seed are mutually exclusive")
		return 2
	}
	if *faultPlan != "" {
		plan, err := zmap.ParseFleetFaults(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo fleet:", err)
			return 2
		}
		opts.Faults = plan
	} else if *faultSeed != 0 {
		opts.Faults = zmap.RandomFleetFaults(*faultSeed, opts.Workers, *faultCount, *faultWindow, *faultWindow/4)
		fmt.Fprintf(os.Stderr, "zmapgo fleet: derived fault plan %q\n", opts.Faults.String())
	}
	if opts.Listen != "" {
		opts.OnListen = func(bound string) {
			join := bound
			if opts.Advertise != "" {
				join = opts.Advertise
			}
			fmt.Fprintf(os.Stderr, "zmapgo fleet: control plane at %s (workers: zmapgo fleet-worker --join %s)\n", bound, join)
		}
	}
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// First SIGINT/SIGTERM cancels the fleet: the coordinator kills its
	// workers and exits; re-running with the same --fleet-dir resumes
	// every shard from its last checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "zmapgo fleet: %v: stopping (re-run with the same --fleet-dir to resume)\n", sig)
			cancel()
		case <-ctx.Done():
		}
	}()

	res, err := zmap.RunFleet(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zmapgo fleet:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr,
		"zmapgo fleet: %d workers scanned %d targets in %.2fs: %d unique rows merged (%d duplicates dropped), %d reclaims\n",
		res.Workers, res.TargetsScanned, res.DurationSecs,
		res.Merge.UniqueRows, res.Merge.Duplicates, res.Reclaims)
	fmt.Fprintf(os.Stderr, "zmapgo fleet: merged output in %s\n", res.MergedOutput)
	return 0
}
