// Command benchjson converts `go test -bench` output on stdin into a
// JSON report on stdout, for committing benchmark baselines (e.g.
// BENCH_sendpath.json) and diffing them in review.
//
// Usage:
//
//	go test -run XXX -bench BenchmarkSendPath ./internal/core | \
//	    go run ./scripts/benchjson -baseline BenchmarkSendPathPerProbe
//
// Each benchmark line becomes an entry with ns/op, derived ops/sec, any
// B/op / allocs/op columns, and any custom b.ReportMetric units. When -baseline names a benchmark, every
// other entry also reports its speedup relative to it. The report
// records the GOMAXPROCS the benchmarks ran at, read from the -N suffix
// go test appends to their names (none means 1): a figure says nothing
// about scaling without it.
//
// With -compare old.json the input is checked against a committed
// report instead of printed: any benchmark whose allocs/op rose fails,
// and with -tolerance (e.g. 10%) so does one whose ns/op is worse by
// more than that. Leave -tolerance off where the machine is not the one
// the baseline was taken on — allocation counts travel, nanoseconds do
// not. Reports taken at different GOMAXPROCS are refused, not compared.
//
//	go test -run XXX -bench BenchmarkRecvPath -benchmem -cpu 2 ./internal/core | \
//	    go run ./scripts/benchjson -compare BENCH_recvpath.json -tolerance 10%
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	Speedup     float64 `json:"speedup_vs_baseline,omitempty"`

	// Metrics holds what the benchmark reported with b.ReportMetric,
	// by unit (e.g. "ns/probe").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Goos     string  `json:"goos,omitempty"`
	Goarch   string  `json:"goarch,omitempty"`
	Pkg      string  `json:"pkg,omitempty"`
	CPU      string  `json:"cpu,omitempty"`
	Procs    int     `json:"gomaxprocs"`
	Baseline string  `json:"baseline,omitempty"`
	Results  []entry `json:"results"`
}

func main() {
	baseline := flag.String("baseline", "", "benchmark name to report speedups against")
	compare := flag.String("compare", "", "committed report to check stdin against instead of printing a report")
	tolerance := flag.String("tolerance", "", "with -compare: how much worse ns/op may be, e.g. 10% (empty = check allocations only)")
	flag.Parse()

	rep := report{Baseline: *baseline}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		e, ok := parseBenchLine(line)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: skipping unparseable line: %s\n", line)
			continue
		}
		_, procs := splitCPUSuffix(e.Name)
		if rep.Procs != 0 && procs != rep.Procs {
			fmt.Fprintf(os.Stderr, "benchjson: %s ran at GOMAXPROCS=%d, earlier lines at %d; one report holds one setting\n",
				e.Name, procs, rep.Procs)
			os.Exit(1)
		}
		rep.Procs = procs
		rep.Results = append(rep.Results, e)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *compare != "" {
		os.Exit(compareReports(*compare, rep, *tolerance))
	}

	if *baseline != "" {
		var base float64
		for _, e := range rep.Results {
			if trimCPUSuffix(e.Name) == *baseline {
				base = e.NsPerOp
				break
			}
		}
		if base == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %q not found\n", *baseline)
			os.Exit(1)
		}
		for i := range rep.Results {
			if trimCPUSuffix(rep.Results[i].Name) != *baseline && rep.Results[i].NsPerOp > 0 {
				rep.Results[i].Speedup = round2(base / rep.Results[i].NsPerOp)
			}
		}
	}

	out := json.NewEncoder(os.Stdout)
	out.SetIndent("", "  ")
	if err := out.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// compareReports checks cur against the report in oldPath and returns
// the exit code: 0 when nothing regressed, 1 otherwise. A benchmark on
// one side only is reported and skipped — rows such as workers=8 exist
// only where there are CPUs to run them.
func compareReports(oldPath string, cur report, tolerance string) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
		return 1
	}
	slack := -1.0 // negative: ns/op is not checked
	if tolerance != "" {
		pct, err := strconv.ParseFloat(strings.TrimSuffix(tolerance, "%"), 64)
		if err != nil || pct < 0 || !strings.HasSuffix(tolerance, "%") {
			return fail("-tolerance %q: want a percentage such as 10%%", tolerance)
		}
		slack = pct / 100
	}
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return fail("%v", err)
	}
	var old report
	if err := json.Unmarshal(data, &old); err != nil {
		return fail("%s: %v", oldPath, err)
	}
	if old.Procs != cur.Procs {
		return fail("%s was taken at GOMAXPROCS=%d, this run at %d; rerun with -cpu %d",
			oldPath, old.Procs, cur.Procs, old.Procs)
	}
	before := make(map[string]entry, len(old.Results))
	for _, e := range old.Results {
		before[e.Name] = e
	}
	code := 0
	for _, e := range cur.Results {
		o, ok := before[e.Name]
		delete(before, e.Name)
		switch {
		case !ok:
			fmt.Printf("%-44s new, not in %s\n", e.Name, oldPath)
		case o.AllocsPerOp != nil && e.AllocsPerOp != nil && *e.AllocsPerOp > *o.AllocsPerOp:
			fmt.Printf("%-44s FAIL allocs/op %d -> %d\n", e.Name, *o.AllocsPerOp, *e.AllocsPerOp)
			code = 1
		case slack >= 0 && e.NsPerOp > o.NsPerOp*(1+slack):
			fmt.Printf("%-44s FAIL ns/op %.4g -> %.4g (%+.1f%%, tolerance %s)\n",
				e.Name, o.NsPerOp, e.NsPerOp, (e.NsPerOp/o.NsPerOp-1)*100, tolerance)
			code = 1
		default:
			fmt.Printf("%-44s ok   ns/op %.4g -> %.4g (%+.1f%%)\n",
				e.Name, o.NsPerOp, e.NsPerOp, (e.NsPerOp/o.NsPerOp-1)*100)
		}
	}
	for name := range before {
		fmt.Printf("%-44s not run\n", name)
	}
	return code
}

// parseBenchLine parses one `BenchmarkName-8  N  X ns/op [Y B/op Z
// allocs/op] [V unit ...]` line. Columns beyond ns/op are optional.
func parseBenchLine(line string) (entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return entry{}, false
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil || ns <= 0 {
		return entry{}, false
	}
	e := entry{
		Name:       f[0],
		Iterations: iters,
		NsPerOp:    ns,
		OpsPerSec:  round2(1e9 / ns),
	}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "B/op":
			b := int64(v)
			e.BytesPerOp = &b
		case "allocs/op":
			a := int64(v)
			e.AllocsPerOp = &a
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return e, true
}

// splitCPUSuffix splits the -GOMAXPROCS suffix go test appends to
// benchmark names (it appends none at GOMAXPROCS=1) from the name.
func splitCPUSuffix(name string) (base string, procs int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return name[:i], n
		}
	}
	return name, 1
}

// trimCPUSuffix drops that suffix, so baselines match across machines.
func trimCPUSuffix(name string) string {
	base, _ := splitCPUSuffix(name)
	return base
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
