package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// metric names one reported number. The tables below are the single
// source for names, units and bounds; BENCHMARK.json repeats them and a
// test keeps the two equal. README.md has the measured spreads the bounds
// were set from.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline median it may worsen by; end-to-end only
}

var endToEnd = []metric{
	{"scan_pps", "probes/s", "higher", 0.25},
	{"cpu_ns_per_target", "ns", "lower", 0.25},
	{"allocs_per_target", "allocs", "lower", 0.04},
	{"rss_peak_mb", "MB", "lower", 0.12},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metric{
	{"cyclic.next_ns", "ns", "lower", 0},
	{"cyclic.decode_ns", "ns", "lower", 0},
	{"cyclic.useful_ratio", "ratio", "higher", 0},
	{"cyclic.setup_ms", "ms", "lower", 0},
	{"target.finalize_ms", "ms", "lower", 0},
	{"target.at_ns", "ns", "lower", 0},
	{"ratelimit.waitn_ns", "ns", "lower", 0},
	{"ratelimit.paced_cpu_ns", "ns", "lower", 0},
	{"ratelimit.paced_err_pct", "%", "lower", 0},
	{"validate.compute_ns", "ns", "lower", 0},
	{"validate.computes_per_render", "count", "lower", 0},
	{"validate.computes_per_classify", "count", "lower", 0},
	{"probe.render_ns", "ns", "lower", 0},
	{"probe.render_allocs", "allocs", "lower", 0},
	{"packet.parse_verified_ns", "ns", "lower", 0},
	{"packet.parse_verified_allocs", "allocs", "lower", 0},
	{"probe.classify_ns", "ns", "lower", 0},
	{"probe.classify_allocs", "allocs", "lower", 0},
	{"probe.classify_reject_ns", "ns", "lower", 0},
	{"dedup.seen_fresh_ns", "ns", "lower", 0},
	{"dedup.seen_repeat_ns", "ns", "lower", 0},
	{"dedup.window_mb", "MB", "lower", 0},
	{"output.write_csv_ns", "ns", "lower", 0},
	{"output.write_jsonl_ns", "ns", "lower", 0},
	{"output.filter_reject_ns", "ns", "lower", 0},
	{"output.bytes_per_record", "bytes", "lower", 0},
	{"netsim.respond_ns", "ns", "lower", 0},
	{"netsim.respond_allocs", "allocs", "lower", 0},
	{"netsim.response_ratio", "ratio", "higher", 0},
	{"trace.key_ns", "ns", "lower", 0},
	{"trace.record_ns", "ns", "lower", 0},
	{"metrics.hist_record_ns", "ns", "lower", 0},
	{"checkpoint.save_ms", "ms", "lower", 0},
	{"checkpoint.bytes", "bytes", "lower", 0},
	{"bench.reflect_ns", "ns", "lower", 0},
	{"transport.send_ns", "ns", "lower", 0},
	{"transport.batch_frames_p50", "frames", "higher", 0},
	{"core.fill_ns", "ns", "lower", 0},
	{"core.send_unattributed_ns", "ns", "lower", 0},
	{"core.recv_residence_us_p50", "us", "lower", 0},
	{"core.recv_residence_us_p99", "us", "lower", 0},
	{"core.recv_unattributed_ns", "ns", "lower", 0},
	{"output.lag_ms_p50", "ms", "lower", 0},
	{"output.lag_ms_p99", "ms", "lower", 0},
	{"core.first_probe_ms", "ms", "lower", 0},
	{"core.teardown_ms", "ms", "lower", 0},
	{"core.compile_alloc_mb", "MB", "lower", 0},
	{"core.packets_sent", "count", "higher", 0},
	{"core.frames_received", "count", "higher", 0},
	{"core.valid_responses", "count", "higher", 0},
	{"core.unique_successes", "count", "higher", 0},
	{"core.recv_invalid", "count", "lower", 0},
	{"core.receive_drops", "count", "lower", 0},
	{"core.send_drops", "count", "lower", 0},
	{"dedup.duplicates", "count", "lower", 0},
	{"output.rows", "count", "higher", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}

// dist summarises the passes of one run for one metric. Value is the
// figure the run reports. For the rate metrics it pools the passes (all
// frames over all send-phase time, all CPU over all targets), which on a
// machine whose speed shifts every few seconds repeats better from run to
// run than the median pass does; for the rest it is the median.
type dist struct {
	Value          float64
	Median, Q1, Q3 float64
	N              int
}

func summarise(xs []float64) dist {
	d := dist{Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
	d.Value = d.Median
	return d
}

// quantile interpolates linearly between ranks; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// environment is recorded with every result; results taken at different
// GOMAXPROCS are never compared.
type environment struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	CPUModel   string
	Commit     string
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func printHeader(seed int64) {
	env := readEnvironment()
	fmt.Printf("zmapgo bench: seed %d, nproc %d, GOMAXPROCS %d, %s, cpu %q, commit %s\n",
		seed, env.NProc, env.GOMAXPROCS, env.GoVersion, env.CPUModel, env.Commit)
}

func printRun(r runResult) {
	w, _ := findWorkload(r.Workload)
	fmt.Printf("\n%s (%s loop, %d targets per pass, recording off, %d passes counted after %v of warm-up)\n",
		r.Workload, w.loop, r.Targets, len(r.Passes), warmup)
	fmt.Printf("  %-20s %14s %14s %14s %14s %4s  %s\n", "metric", "value", "median", "q1", "q3", "n", "unit")
	for _, m := range endToEnd {
		d := r.Metrics[m.name]
		fmt.Printf("  %-20s %14.6g %14.6g %14.6g %14.6g %4d  %s\n", m.name, d.Value, d.Median, d.Q1, d.Q3, d.N, m.unit)
	}
	fmt.Printf("  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, why := range r.Why {
		fmt.Printf("  ORACLE: %s\n", why)
	}
}

func printTrace(t traceResult) {
	fmt.Printf("\n%s traced run (ledger: %d x %d calls per row; spans: %d pairs of quarter-size passes)\n",
		t.Workload, ledgerRepeats, ledgerCalls, overheadPairs)
	for _, m := range perLayer {
		fmt.Printf("  %-32s %16.6g  %s\n", m.name, t.Metrics[m.name], m.unit)
	}
	for _, l := range t.Ledgers {
		if len(l.Rows) == 0 {
			continue
		}
		fmt.Printf("  ledger, %s, %s:\n", l.Title, l.Unit)
		for _, row := range l.Rows {
			fmt.Printf("    %-72s %10.1f\n", row.What, row.Ns)
		}
		fmt.Printf("    %-72s %10.1f\n", "sum of the rows", l.sum())
		fmt.Printf("    %-72s %10.1f\n", "measured", l.Measured)
		fmt.Printf("    %-72s %10.1f\n", "unattributed", l.Measured-l.sum())
	}
	fmt.Printf("  attempted %d, failed %d\n", t.Attempted, t.Failed)
	for _, why := range t.Why {
		fmt.Printf("  ORACLE: %s\n", why)
	}
}

// compare prints, per workload and end-to-end metric, both sets' medians
// and quartiles and how much worse b is than a, and returns how many
// exceed their bound.
func compare(out io.Writer, a, b *report) (worse int, err error) {
	if a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return 0, fmt.Errorf("refusing to compare results taken at GOMAXPROCS %d and %d", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	}
	fmt.Fprintf(out, "\n%-13s %-18s %12s %12s %25s %12s %12s %25s %8s %6s\n", "workload", "metric",
		"A value", "A median", "A [q1, q3]", "B value", "B median", "B [q1, q3]", "worse", "bound")
	for i, ra := range a.Runs {
		if i >= len(b.Runs) || b.Runs[i].Workload != ra.Workload {
			return 0, fmt.Errorf("the two sets do not hold the same workloads")
		}
		for _, m := range endToEnd {
			da, db := ra.Metrics[m.name], b.Runs[i].Metrics[m.name]
			rel := (db.Value - da.Value) / da.Value
			if m.better == "higher" {
				rel = -rel
			}
			verdict := ""
			if rel > m.bound {
				verdict = "  EXCEEDS"
				worse++
			}
			fmt.Fprintf(out, "%-13s %-18s %12.6g %12.6g %25s %12.6g %12.6g %25s %+7.2f%% %5.0f%%%s\n",
				ra.Workload, m.name, da.Value, da.Median, fmt.Sprintf("[%.6g, %.6g]", da.Q1, da.Q3),
				db.Value, db.Median, fmt.Sprintf("[%.6g, %.6g]", db.Q1, db.Q3), rel*100, m.bound*100, verdict)
		}
	}
	return worse, nil
}
