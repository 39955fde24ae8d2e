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
	var (
		ports       = fs.String("p", "80", "ports to scan (ZMap syntax: 80,443 or 8000-8100 or *)")
		ranges      = fs.String("r", "", "comma-separated target CIDRs (default: all IPv4)")
		blocklist   = fs.String("b", "", "blocklist file (ZMap format)")
		probeModule = fs.String("M", "tcp_synscan", "probe module: tcp_synscan|icmp_echoscan|udp")
		rate        = fs.Float64("rate", 0, "send rate in packets/sec (0 = unlimited)")
		bandwidth   = fs.String("B", "", "send bandwidth, e.g. 10M or 1G (overrides --rate)")
		batchSize   = fs.Int("batch-size", 0, "probe frames per transport flush (0 = default 64, 1 = per-probe sends)")
		recvWorkers = fs.Int("recv-workers", 0, "sharded receive workers (0 = default 1; rounded up to a power of two)")
		seed        = fs.Int64("seed", 0, "permutation seed (0 = time-derived)")
		shards      = fs.Int("shards", 1, "total shards")
		shardIdx    = fs.Int("shard", 0, "this machine's shard index")
		threads     = fs.Int("T", 1, "sender threads")
		interleaved = fs.Bool("interleaved-sharding", false, "use the legacy pre-2017 sharding scheme")
		tcpOptions  = fs.String("probe-tcp-options", "mss", "SYN option layout: none|mss|sack|timestamp|wscale|optimal|linux|bsd|windows")
		staticIPID  = fs.Bool("static-ip-id", false, "use the classic static IP ID 54321 instead of random")
		probes      = fs.Int("P", 1, "probes per target")
		maxTargets  = fs.Uint64("max-targets", 0, "cap on (IP,port) targets for this shard")
		cooldown    = fs.Duration("cooldown-time", 2*time.Second, "quiescence window: cooldown ends after this long with no responses")
		cooldownMax = fs.Duration("cooldown-max", 0, "hard cap on the adaptive cooldown (0 = 4x cooldown-time, negative = fixed cooldown)")
		adaptive    = fs.Bool("adaptive-rate", false, "enable closed-loop congestion-aware rate control (requires --rate or -B)")
		minRate     = fs.Float64("min-rate", 0, "floor for adaptive rate decreases in packets/sec (0 = rate/64)")
		quarThresh  = fs.Float64("quarantine-threshold", 0, "per-/16 interference quarantine threshold (0 = default 0.15 when health is on, negative = off)")
		healthTick  = fs.Duration("health-interval", 0, "scan-health controller evaluation period (0 = 1s)")
		paroleAfter = fs.Duration("parole-after", 0, "re-probe quarantined prefixes on a small budget after this long (0 = 30 health intervals, negative = never)")
		maxRuntime  = fs.Duration("max-runtime", 0, "stop sending after this long (0 = no limit)")
		retries     = fs.Int("retries", 0, "per-probe retry budget on transient send errors (0 = default 10, negative = none)")
		sendBackoff = fs.Duration("send-backoff", 0, "initial retry backoff, doubled per attempt (0 = default 1ms)")
		maxRestarts = fs.Int("max-sender-restarts", 0, "sender restarts after fatal errors or panics (0 = default 2, negative = none)")
		ckptFile    = fs.String("checkpoint", "", "write a crash-safe scan checkpoint here periodically and at exit")
		ckptEvery   = fs.Duration("checkpoint-interval", 0, "how often to snapshot scan state (0 = default 5s)")
		resumeCkpt  = fs.String("resume-from", "", "resume from a checkpoint written by --checkpoint (config must match; seed 0 is adopted)")
		format      = fs.String("O", "text", "output format: text|csv|jsonl")
		filter      = fs.String("output-filter", "", `output filter (default "success = 1 && repeat = 0")`)
		outFile     = fs.String("o", "-", "output file (- = stdout)")
		metaFile    = fs.String("metadata-file", "", "write end-of-scan JSON metadata here")
		statusFile  = fs.String("status-updates-file", "", "write 1 Hz status lines here")
		statusFmt   = fs.String("status-format", "csv", "status line format: csv (ZMap columns) or json (adds latency quantiles, per-thread rates)")
		statusHdr   = fs.Bool("status-header", true, "prepend the CSV column header to status updates")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9100; empty = off)")
		traceFile   = fs.String("trace-file", "", "write a flight-recorder dump here at scan end and on SIGUSR1 (empty = dump only on SIGUSR1 or abort, to zmapgo-trace.<fmt>)")
		traceFmt    = fs.String("trace-format", "jsonl", "flight-recorder dump format: jsonl (zanalyze trace) or chrome (Perfetto)")
		traceEvery  = fs.Int("trace-sample-every", 0, "trace 1 in N targets through the flight recorder (0 = default 256, 1 = all, negative = decision journal only)")
		traceRing   = fs.Int("trace-ring-size", 0, "flight-recorder per-shard event capacity (0 = default 8192)")
		verbose     = fs.Bool("v", false, "verbose logging to stderr")
		showSchema  = fs.Bool("schema", false, "print the output record schema as JSON and exit")
		showVersion = fs.Bool("version", false, "print the version and exit")
		optOutFile  = fs.String("opt-out-file", "", "operator opt-out list with added= dates (expired entries are dropped)")
		optOutTTL   = fs.Duration("opt-out-ttl", 0, "opt-out expiry (default 2 years, per the paper's practice)")
		simSeed     = fs.Uint64("sim-seed", 1, "simulated-Internet population seed")
		simLossless = fs.Bool("sim-lossless", false, "disable simulated packet loss")
		timeScale   = fs.Float64("sim-time-scale", 1e-3, "RTT compression factor for the simulated link")

		// Fault injection into the simulated link (testing the engine's
		// retry and supervision paths end to end).
		simFaultFirstN = fs.Int("sim-fault-first-n", 0, "fail the first N send attempts of every probe with a transient error")
		simFaultProb   = fs.Float64("sim-fault-prob", 0, "fail each send attempt with this probability (seeded, deterministic)")
		simFaultFatal  = fs.Int("sim-fault-fatal-after", 0, "fail every send permanently after this many attempts (0 = never)")

		// Congestion model on the simulated link (the path the adaptive
		// rate controller is built to survive).
		simCongPPS    = fs.Float64("sim-congestion-pps", 0, "simulated path capacity knee in packets/sec (0 = uncongested)")
		simCongICMP   = fs.Float64("sim-congestion-icmp-pps", 0, "simulated router ICMP-unreachable budget for dropped probes")
		simDarkPrefix = fs.String("sim-dark-prefix", "", "CIDR prefix (/8 to /24) that goes dark mid-scan (interference fault)")
		simDarkAfter  = fs.Uint64("sim-dark-after", 0, "probe count that triggers the dark prefix")
		simScenario   = fs.String("sim-scenario", "", "JSON network-weather scenario to play on the simulated link (see conf/scenarios/)")

		// Receive-path fault injection (testing the parse/validate/dedup
		// pipeline's hardening end to end). Probabilities are per frame.
		simRecvTrunc   = fs.Float64("sim-recv-fault-truncate", 0, "truncate received frames with this probability")
		simRecvCorrupt = fs.Float64("sim-recv-fault-corrupt", 0, "flip random bits in received frames with this probability")
		simRecvDup     = fs.Float64("sim-recv-fault-dup", 0, "deliver received frames twice with this probability")
		simRecvReorder = fs.Float64("sim-recv-fault-reorder", 0, "delay received frames so later traffic overtakes them, with this probability")
		simRecvSpoof   = fs.Float64("sim-recv-fault-spoof", 0, "inject forged-but-well-formed SYN-ACKs with this probability")
		simRecvSeed    = fs.Int64("sim-recv-fault-seed", 0, "seed for the receive-fault schedule (default: --sim-seed)")
	)
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

	opts := zmap.Options{
		Ranges:              zmap.ParseTargets(*ranges),
		Ports:               *ports,
		Probe:               *probeModule,
		Rate:                *rate,
		Bandwidth:           *bandwidth,
		BatchSize:           *batchSize,
		RecvWorkers:         *recvWorkers,
		Seed:                *seed,
		Shards:              *shards,
		ShardIndex:          *shardIdx,
		Threads:             *threads,
		InterleavedSharding: *interleaved,
		TCPOptions:          *tcpOptions,
		StaticIPID:          *staticIPID,
		ProbesPerTarget:     *probes,
		MaxTargets:          *maxTargets,
		Cooldown:            *cooldown,
		CooldownMax:         *cooldownMax,
		AdaptiveRate:        *adaptive,
		MinRate:             *minRate,
		QuarantineThreshold: *quarThresh,
		HealthInterval:      *healthTick,
		MaxRuntime:          *maxRuntime,
		Retries:             *retries,
		Backoff:             *sendBackoff,
		MaxSenderRestarts:   *maxRestarts,
		CheckpointPath:      *ckptFile,
		CheckpointInterval:  *ckptEvery,
		Format:              *format,
		Filter:              *filter,
		TraceSampleEvery:    *traceEvery,
		TraceRingSize:       *traceRing,
	}
	if *traceFmt != "jsonl" && *traceFmt != "chrome" {
		fmt.Fprintf(os.Stderr, "zmapgo: unknown --trace-format %q (want jsonl or chrome)\n", *traceFmt)
		return 2
	}
	if *paroleAfter != 0 {
		opts.Health = &health.Config{ParoleAfter: *paroleAfter}
	}

	if *optOutFile != "" {
		f, err := os.Open(*optOutFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 1
		}
		entries, err := target.ParseOptOutList(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 1
		}
		var extra []string
		applied, expired := 0, 0
		now := time.Now()
		ttl := *optOutTTL
		if ttl <= 0 {
			ttl = target.DefaultOptOutTTL
		}
		for _, e := range entries {
			if e.Expired(now, ttl) {
				expired++
				continue
			}
			applied++
			extra = append(extra, fmt.Sprintf("%s/%d", target.FormatIPv4(e.Prefix), e.Bits))
		}
		opts.Blocklist = append(opts.Blocklist, extra...)
		fmt.Fprintf(os.Stderr, "zmapgo: opt-outs: %d applied, %d expired (ttl %v)\n", applied, expired, ttl)
	}

	if *blocklist != "" {
		f, err := os.Open(*blocklist)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zmapgo:", err)
			return 1
		}
		defer f.Close()
		opts.BlocklistFile = f
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
	if *statusFmt != "csv" && *statusFmt != "json" {
		fmt.Fprintf(os.Stderr, "zmapgo: unknown --status-format %q (want csv or json)\n", *statusFmt)
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
		opts.StatusFormat = *statusFmt
		opts.StatusCSVHeader = *statusHdr
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
	if *simFaultFirstN > 0 || *simFaultProb > 0 || *simFaultFatal > 0 {
		link = internet.NewFaultyLink(1<<16, *timeScale, zmap.FaultOptions{
			Seed:          *simSeed,
			FailFirstN:    *simFaultFirstN,
			TransientProb: *simFaultProb,
			FatalAfter:    *simFaultFatal,
		})
	} else {
		link = internet.NewLink(1<<16, *timeScale)
	}
	rfSeed := *simRecvSeed
	if rfSeed == 0 {
		rfSeed = int64(*simSeed)
	}
	link.WithRecvFaults(zmap.RecvFaultOptions{
		Seed:          rfSeed,
		TruncateProb:  *simRecvTrunc,
		CorruptProb:   *simRecvCorrupt,
		DuplicateProb: *simRecvDup,
		ReorderProb:   *simRecvReorder,
		SpoofProb:     *simRecvSpoof,
	})
	if *simCongPPS > 0 || *simDarkPrefix != "" {
		cong := zmap.CongestionOptions{
			CapacityPPS: *simCongPPS,
			ICMPPPS:     *simCongICMP,
			DarkAfter:   *simDarkAfter,
		}
		if *simDarkPrefix != "" {
			ip, bits, err := parseDarkPrefix(*simDarkPrefix)
			if err != nil {
				fmt.Fprintln(os.Stderr, "zmapgo:", err)
				return 2
			}
			if *simDarkAfter == 0 {
				fmt.Fprintln(os.Stderr, "zmapgo: --sim-dark-prefix requires --sim-dark-after > 0")
				return 2
			}
			cong.DarkPrefix = ip
			cong.DarkBits = bits
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
		if *ckptFile != "" {
			fmt.Fprintf(os.Stderr, "zmapgo: progress saved; resume with --resume-from %s\n", *ckptFile)
		}
		// A fatal abort is exactly when the flight recorder earns its
		// keep: dump it unconditionally so the last decisions and probe
		// spans before death are on disk.
		dumpTrace("sender abort")
	} else if *traceFile != "" {
		dumpTrace("scan end")
	}
	rowsLost := ""
	if n := scanner.Metrics().Counter("zmapgo_results_rows_lost_total", "").Value(); n > 0 {
		rowsLost = fmt.Sprintf(", %d rows lost", n)
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
		if *ckptFile != "" {
			fmt.Fprintf(os.Stderr, "zmapgo: interrupted; resume with --resume-from %s\n", *ckptFile)
		}
		return 130
	}
	if aborted {
		return 3
	}
	return 0
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
