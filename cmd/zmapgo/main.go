// Command zmapgo is the thin CLI wrapper over the zmap library — the
// second half of the paper's "library and command line wrapper" lesson.
// It mirrors ZMap's flag names where they exist and runs scans against
// the built-in simulated Internet (the repository's substitute for raw
// sockets on the real IPv4 space).
//
// Example:
//
//	zmapgo -p 80,443 -r 10.0.0.0/16 --rate 50000 -O jsonl --seed 7
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zmapgo/internal/health"
	"zmapgo/internal/target"
	"zmapgo/zmap"
)

func main() {
	// Fleet workers are re-executions of this binary: when the worker
	// spec environment variable is present, run the assigned shard and
	// exit instead of parsing flags.
	if zmap.FleetWorkerMain() {
		return
	}
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "fleet" {
		os.Exit(runFleet(args[1:]))
	}
	if len(args) > 0 && args[0] == "fleet-worker" {
		os.Exit(runFleetWorkerCmd(args[1:]))
	}
	os.Exit(run(args))
}

func run(args []string) int {
	fs := flag.NewFlagSet("zmapgo", flag.ContinueOnError)
	var opts zmap.Options
	loadScan := scanFlags(fs, &opts)
	fs.IntVar(&opts.Shards, "shards", 1, "total shards")
	fs.IntVar(&opts.ShardIndex, "shard", 0, "this machine's shard index")
	fs.StringVar(&opts.CheckpointPath, "checkpoint", "", "write a crash-safe scan checkpoint here periodically and at exit")
	fs.DurationVar(&opts.CheckpointInterval, "checkpoint-interval", 0, "how often to snapshot scan state (0 = default 5s)")
	fs.StringVar(&opts.StatusFormat, "status-format", "csv", "status line format: csv (ZMap columns) or json (adds latency quantiles, per-thread rates)")
	fs.BoolVar(&opts.StatusCSVHeader, "status-header", true, "prepend the CSV column header to status updates")
	var (
		paroleAfter = fs.Duration("parole-after", 0, "re-probe quarantined prefixes on a small budget after this long (0 = 30 health intervals, negative = never)")
		resumeCkpt  = fs.String("resume-from", "", "resume from a checkpoint written by --checkpoint (config must match; seed 0 is adopted)")
		outFile     = fs.String("o", "-", "output file (- = stdout)")
		metaFile    = fs.String("metadata-file", "", "write end-of-scan JSON metadata here")
		statusFile  = fs.String("status-updates-file", "", "write 1 Hz status lines here")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9100; empty = off)")
		traceFile   = fs.String("trace-file", "", "write a flight-recorder dump here at scan end and on SIGUSR1 (empty = dump only on SIGUSR1 or abort, to zmapgo-trace.<fmt>)")
		traceFmt    = fs.String("trace-format", "jsonl", "flight-recorder dump format: jsonl (zanalyze trace) or chrome (Perfetto)")
		verbose     = fs.Bool("v", false, "verbose logging to stderr")
		showSchema  = fs.Bool("schema", false, "print the output record schema as JSON and exit")
		showVersion = fs.Bool("version", false, "print the version and exit")
		simSeed     = fs.Uint64("sim-seed", 1, "simulated-Internet population seed")
		simLossless = fs.Bool("sim-lossless", false, "disable simulated packet loss")
		timeScale   = fs.Float64("sim-time-scale", 1e-3, "RTT compression factor for the simulated link")
	)
	// The injectors' flags are bound to the options they fill. Send
	// faults exercise the engine's retry and supervision paths end to
	// end; the congestion model is the path the adaptive rate controller
	// is built to survive; receive faults (probabilities per frame) test
	// the parse/validate/dedup pipeline's hardening.
	var (
		faults     zmap.FaultOptions
		cong       zmap.CongestionOptions
		recvFaults zmap.RecvFaultOptions
	)
	fs.IntVar(&faults.FailFirstN, "sim-fault-first-n", 0, "fail the first N send attempts of every probe with a transient error")
	fs.Float64Var(&faults.TransientProb, "sim-fault-prob", 0, "fail each send attempt with this probability (seeded, deterministic)")
	fs.IntVar(&faults.FatalAfter, "sim-fault-fatal-after", 0, "fail every send permanently after this many attempts (0 = never)")
	fs.Float64Var(&cong.CapacityPPS, "sim-congestion-pps", 0, "simulated path capacity knee in packets/sec (0 = uncongested)")
	fs.Float64Var(&cong.ICMPPPS, "sim-congestion-icmp-pps", 0, "simulated router ICMP-unreachable budget for dropped probes")
	simDarkPrefix := fs.String("sim-dark-prefix", "", "CIDR prefix (/8 to /24) that goes dark mid-scan (interference fault)")
	fs.Uint64Var(&cong.DarkAfter, "sim-dark-after", 0, "probe count that triggers the dark prefix")
	simScenario := fs.String("sim-scenario", "", "JSON network-weather scenario to play on the simulated link (see conf/scenarios/)")
	fs.Float64Var(&recvFaults.TruncateProb, "sim-recv-fault-truncate", 0, "truncate received frames with this probability")
	fs.Float64Var(&recvFaults.CorruptProb, "sim-recv-fault-corrupt", 0, "flip random bits in received frames with this probability")
	fs.Float64Var(&recvFaults.DuplicateProb, "sim-recv-fault-dup", 0, "deliver received frames twice with this probability")
	fs.Float64Var(&recvFaults.ReorderProb, "sim-recv-fault-reorder", 0, "delay received frames so later traffic overtakes them, with this probability")
	fs.Float64Var(&recvFaults.SpoofProb, "sim-recv-fault-spoof", 0, "inject forged-but-well-formed SYN-ACKs with this probability")
	fs.Int64Var(&recvFaults.Seed, "sim-recv-fault-seed", 0, "seed for the receive-fault schedule (default: --sim-seed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *showVersion {
		fmt.Fprintf(os.Stdout, "zmapgo %s\n", zmap.Version)
		return 0
	}
	if *showSchema {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(zmap.Schema()); err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 1
		}
		return 0
	}

	if *traceFmt != "jsonl" && *traceFmt != "chrome" {
		fmt.Fprintf(os.Stderr, "zmapgo: unknown --trace-format %q (want jsonl or chrome)\n", *traceFmt)
		return 2
	}
	if err := loadScan(); err != nil {
		fmt.Fprintln(os.Stderr, "zmapgo:", err)
		return 1
	}
	if *paroleAfter != 0 {
		opts.Health = &health.Config{ParoleAfter: *paroleAfter}
	}

	if *outFile == "-" {
		opts.Results = os.Stdout
	} else {
		// Write-only, unlike os.Create: opened read-write, a pipe or FIFO
		// (-o /dev/stdout | head) would count this process as a reader,
		// so a vanished consumer would block the scan instead of failing
		// the write.
		f, err := os.OpenFile(*outFile, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 1
		}
		defer f.Close()
		opts.Results = f
	}
	if *metaFile != "" {
		f, err := os.Create(*metaFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 1
		}
		defer f.Close()
		opts.Metadata = f
	}
	if opts.StatusFormat != "csv" && opts.StatusFormat != "json" {
		fmt.Fprintf(os.Stderr, "zmapgo: unknown --status-format %q (want csv or json)\n", opts.StatusFormat)
		return 2
	}
	if *statusFile != "" {
		f, err := os.Create(*statusFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 1
		}
		defer f.Close()
		opts.StatusUpdates = f
	}
	// Errors always reach stderr: a results stream that starts refusing
	// writes must not end in silence and exit 0.
	logLevel := slog.LevelError
	if *verbose {
		logLevel = slog.LevelDebug
	}
	opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))

	if *resumeCkpt != "" {
		snap, err := zmap.LoadCheckpoint(*resumeCkpt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 1
		}
		opts.Resume = snap
		fmt.Fprintf(os.Stderr, "zmapgo: resuming run %d from %s (phase %q, %d sent, progress %v)\n",
			snap.Runs+1, *resumeCkpt, snap.Phase, snap.PacketsSent, snap.Progress)
	}

	internet := zmap.NewInternet(zmap.SimOptions{Seed: *simSeed, Lossless: *simLossless})
	var link *zmap.Link
	if faults.FailFirstN > 0 || faults.TransientProb > 0 || faults.FatalAfter > 0 {
		faults.Seed = *simSeed
		link = internet.NewFaultyLink(1<<16, *timeScale, faults)
	} else {
		link = internet.NewLink(1<<16, *timeScale)
	}
	if recvFaults.Seed == 0 {
		recvFaults.Seed = int64(*simSeed)
	}
	link.WithRecvFaults(recvFaults)
	if cong.CapacityPPS > 0 || *simDarkPrefix != "" {
		if *simDarkPrefix != "" {
			ip, bits, err := parseDarkPrefix(*simDarkPrefix)
			if err != nil {
				fmt.Fprintln(os.Stderr, "zmapgo:", err)
				return 2
			}
			if cong.DarkAfter == 0 {
				fmt.Fprintln(os.Stderr, "zmapgo: --sim-dark-prefix requires --sim-dark-after > 0")
				return 2
			}
			cong.DarkPrefix, cong.DarkBits = ip, bits
		}
		link.WithCongestion(cong)
	}
	if *simScenario != "" {
		sc, err := zmap.LoadScenario(*simScenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 2
		}
		if _, err := link.WithScenario(sc); err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "zmapgo: playing scenario %q (seed %d, %d events)\n",
			sc.Name, sc.Seed, len(sc.Events))
	}
	defer link.Close()

	scanner, err := opts.Compile(link)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zmapgo:", err)
		return 1
	}

	// dumpTrace writes a flight-recorder snapshot to --trace-file (or a
	// default name when unset). Safe mid-scan; each call overwrites the
	// previous dump with a fresher snapshot.
	dumpTrace := func(reason string) {
		path := *traceFile
		if path == "" {
			path = "zmapgo-trace." + map[string]string{"jsonl": "jsonl", "chrome": "json"}[*traceFmt]
		}
		// Write-then-rename so a concurrent reader (or a SIGUSR1 arriving
		// during the scan-end dump) never sees a torn file.
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo: trace dump:", err)
			return
		}
		werr := scanner.WriteTrace(f, *traceFmt)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp, path)
		}
		if werr != nil {
			os.Remove(tmp)
			fmt.Fprintln(os.Stderr, "zmapgo: trace dump:", werr)
			return
		}
		fmt.Fprintf(os.Stderr, "zmapgo: flight recorder dumped to %s (%s)\n", path, reason)
	}

	var srv *zmap.MetricsServer
	if *metricsAddr != "" {
		srv, err = zmap.NewMetricsServer(*metricsAddr, scanner.Metrics())
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 1
		}
		srv.SetTraceSource(scanner.WriteTrace)
		// Graceful teardown: flip /healthz to draining, finish in-flight
		// scrapes, then close the listener (it used to leak on scan end).
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			if err := srv.Shutdown(sctx); err != nil {
				srv.Close()
			}
		}()
		fmt.Fprintf(os.Stderr, "zmapgo: metrics on http://%s/metrics (pprof on /debug/pprof/, trace on /debug/trace, health on /healthz)\n", srv.Addr())
	}

	// Two-stage signal handling: the first SIGINT/SIGTERM requests a
	// graceful stop (drain, flush, final checkpoint); a second one aborts
	// hard by canceling the scan context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "zmapgo: %v: stopping gracefully — draining receives and flushing output (signal again to abort hard)\n", sig)
			if srv != nil {
				srv.SetReady(false) // /healthz reports draining from here on
			}
			scanner.Stop()
		case <-ctx.Done():
			return
		}
		select {
		case <-sigCh:
			fmt.Fprintln(os.Stderr, "zmapgo: second signal: aborting")
			cancel()
		case <-ctx.Done():
		}
	}()
	// SIGUSR1 dumps the flight recorder mid-scan without disturbing the
	// scan itself (snapshotting the rings is lock-free on the writer side).
	usrCh := make(chan os.Signal, 1)
	signal.Notify(usrCh, syscall.SIGUSR1)
	defer signal.Stop(usrCh)
	usrDone := make(chan struct{})
	defer close(usrDone)
	go func() {
		for {
			select {
			case <-usrCh:
				dumpTrace("SIGUSR1")
			case <-usrDone:
				return
			}
		}
	}()
	summary, err := scanner.Run(ctx)
	aborted := err != nil && errors.Is(err, zmap.ErrSenderAborted)
	if err != nil && !aborted {
		fmt.Fprintln(os.Stderr, "zmapgo:", err)
		return 1
	}
	if aborted {
		// Senders died on a fatal transport error. The summary is still
		// valid and the final checkpoint (when one is configured) is
		// exact, so report before exiting nonzero.
		fmt.Fprintln(os.Stderr, "zmapgo:", err)
		fmt.Fprintf(os.Stderr, "zmapgo: %d send errors, %d sender restarts\n",
			summary.SendErrors, summary.SenderRestarts)
		if opts.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "zmapgo: progress saved; resume with --resume-from %s\n", opts.CheckpointPath)
		}
		// A fatal abort is exactly when the flight recorder earns its
		// keep: dump it unconditionally so the last decisions and probe
		// spans before death are on disk.
		dumpTrace("sender abort")
	} else if *traceFile != "" {
		dumpTrace("scan end")
	}
	rowsLost := ""
	if summary.RowsLost > 0 {
		rowsLost = fmt.Sprintf(", %d rows lost", summary.RowsLost)
	}
	fmt.Fprintf(os.Stderr,
		"zmapgo: sent %d probes, %d unique successes (hit rate %.3f%%), %d dups, %.0f pps%s\n",
		summary.PacketsSent, summary.UniqueSucc, summary.HitRate*100,
		summary.Duplicates, summary.SendRatePPS, rowsLost)
	if summary.AdaptiveRate {
		fmt.Fprintf(os.Stderr,
			"zmapgo: adaptive rate: final %.0f pps (%d decreases, %d increases, %d unreachables)\n",
			summary.FinalRatePPS, summary.RateDecreases, summary.RateIncreases, summary.UnreachObserved)
	}
	if n := len(summary.QuarantinedPrefixes); n > 0 {
		fmt.Fprintf(os.Stderr, "zmapgo: quarantined %d interfered prefix(es), %d probes skipped:\n",
			n, summary.QuarantineSkipped)
		for _, q := range summary.QuarantinedPrefixes {
			fmt.Fprintf(os.Stderr, "zmapgo:   %s at %.1fs (sent %d, recv %d)\n",
				q.Prefix, q.AtSecs, q.Sent, q.Recv)
		}
	}
	if summary.Interrupted {
		if opts.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "zmapgo: interrupted; resume with --resume-from %s\n", opts.CheckpointPath)
		}
		return 130
	}
	if aborted {
		return 3
	}
	return 0
}

// scanFlags registers the flags that describe a scan — the ones `zmapgo`
// and `zmapgo fleet` share, defined once, each bound to its field of o.
// Call load after fs.Parse: it reads the blocklist and opt-out files
// into o.Blocklist entries, so the whole scan serialises and a fleet's
// workers honor them.
func scanFlags(fs *flag.FlagSet, o *zmap.Options) (load func() error) {
	fs.StringVar(&o.Ports, "p", "80", "ports to scan (ZMap syntax: 80,443 or 8000-8100 or *)")
	ranges := fs.String("r", "", "comma-separated target CIDRs (default: all IPv4)")
	blocklist := fs.String("b", "", "blocklist file (ZMap format)")
	optOutFile := fs.String("opt-out-file", "", "operator opt-out list with added= dates (expired entries are dropped)")
	optOutTTL := fs.Duration("opt-out-ttl", 0, "opt-out expiry (default 2 years, per the paper's practice)")
	fs.StringVar(&o.Probe, "M", "tcp_synscan", "probe module: tcp_synscan|icmp_echoscan|udp")
	fs.Float64Var(&o.Rate, "rate", 0, "send rate in packets/sec (0 = unlimited); a fleet's live workers share it")
	fs.StringVar(&o.Bandwidth, "B", "", "send bandwidth, e.g. 10M or 1G (overrides --rate)")
	fs.IntVar(&o.BatchSize, "batch-size", 0, "probe frames per transport flush (0 = default 64, 1 = per-probe sends)")
	fs.IntVar(&o.RecvWorkers, "recv-workers", 0, "sharded receive workers (0 = default 1; rounded up to a power of two)")
	fs.Int64Var(&o.Seed, "seed", 0, "permutation seed (0 = time-derived; a fleet requires a fixed non-zero seed)")
	fs.IntVar(&o.Threads, "T", 1, "sender threads (per worker in a fleet)")
	fs.StringVar(&o.TCPOptions, "probe-tcp-options", "mss", "SYN option layout: none|mss|sack|timestamp|wscale|optimal|linux|bsd|windows")
	fs.BoolVar(&o.StaticIPID, "static-ip-id", false, "use the classic static IP ID 54321 instead of random")
	fs.IntVar(&o.ProbesPerTarget, "P", 1, "probes per target")
	fs.Uint64Var(&o.MaxTargets, "max-targets", 0, "cap on (IP,port) targets for this shard")
	fs.DurationVar(&o.Cooldown, "cooldown-time", 2*time.Second, "quiescence window: cooldown ends after this long with no responses")
	fs.DurationVar(&o.CooldownMax, "cooldown-max", 0, "hard cap on the adaptive cooldown (0 = 4x cooldown-time, negative = fixed cooldown)")
	fs.BoolVar(&o.AdaptiveRate, "adaptive-rate", false, "enable closed-loop congestion-aware rate control (requires --rate or -B)")
	fs.Float64Var(&o.MinRate, "min-rate", 0, "floor for adaptive rate decreases in packets/sec (0 = rate/64)")
	fs.Float64Var(&o.QuarantineThreshold, "quarantine-threshold", 0, "per-/16 interference quarantine threshold (0 = default 0.15 when health is on, negative = off)")
	fs.DurationVar(&o.HealthInterval, "health-interval", 0, "scan-health controller evaluation period (0 = 1s)")
	fs.DurationVar(&o.MaxRuntime, "max-runtime", 0, "stop sending after this long (0 = no limit)")
	fs.IntVar(&o.Retries, "retries", 0, "per-probe retry budget on transient send errors (0 = default 10, negative = none)")
	fs.DurationVar(&o.Backoff, "send-backoff", 0, "initial retry backoff, doubled per attempt (0 = default 1ms)")
	fs.IntVar(&o.MaxSenderRestarts, "max-sender-restarts", 0, "sender restarts after fatal errors or panics (0 = default 2, negative = none)")
	fs.StringVar(&o.Format, "O", "text", "output format: text|csv|jsonl")
	fs.StringVar(&o.Filter, "output-filter", "", `output filter (default "success = 1 && repeat = 0")`)
	fs.IntVar(&o.TraceSampleEvery, "trace-sample-every", 0, "trace 1 in N targets through the flight recorder (0 = default 256, 1 = all, negative = decision journal only)")
	fs.IntVar(&o.TraceRingSize, "trace-ring-size", 0, "flight-recorder per-shard event capacity (0 = default 8192)")
	return func() error {
		o.Ranges = zmap.ParseTargets(*ranges)
		if *optOutFile != "" {
			f, err := os.Open(*optOutFile)
			if err != nil {
				return err
			}
			entries, err := target.ParseOptOutList(f)
			f.Close()
			if err != nil {
				return err
			}
			ttl := *optOutTTL
			if ttl <= 0 {
				ttl = target.DefaultOptOutTTL
			}
			applied, now := 0, time.Now()
			for _, e := range entries {
				if !e.Expired(now, ttl) {
					applied++
					o.Blocklist = append(o.Blocklist, fmt.Sprintf("%s/%d", target.FormatIPv4(e.Prefix), e.Bits))
				}
			}
			fmt.Fprintf(os.Stderr, "zmapgo: opt-outs: %d applied, %d expired (ttl %v)\n",
				applied, len(entries)-applied, ttl)
		}
		if *blocklist != "" {
			f, err := os.Open(*blocklist)
			if err != nil {
				return err
			}
			defer f.Close()
			// Entries are checked here, where their line number is known.
			check := target.NewConstraint(true)
			_, err = target.ReadBlocklist(f, func(cidr string) error {
				o.Blocklist = append(o.Blocklist, cidr)
				return check.DenyCIDR(cidr)
			})
			return err
		}
		return nil
	}
}

// parseDarkPrefix parses the --sim-dark-prefix argument: an IPv4 CIDR
// whose length is between /8 and /24 (one octet to one /24 — the sizes
// the interference fault can darken).
func parseDarkPrefix(s string) (ip uint32, bits int, err error) {
	ipStr, bitsStr, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("--sim-dark-prefix %q must be an a.b.c.d/len CIDR with length /8 to /24", s)
	}
	bits, err = strconv.Atoi(bitsStr)
	if err != nil || bits < 8 || bits > 24 {
		return 0, 0, fmt.Errorf("--sim-dark-prefix %q length must be between /8 and /24", s)
	}
	ip, err = target.ParseIPv4(ipStr)
	if err != nil {
		return 0, 0, fmt.Errorf("--sim-dark-prefix: %w", err)
	}
	mask := uint32(0xFFFFFFFF) << (32 - bits)
	if ip&^mask != 0 {
		return 0, 0, fmt.Errorf("--sim-dark-prefix %q has host bits set below /%d", s, bits)
	}
	return ip, bits, nil
}
