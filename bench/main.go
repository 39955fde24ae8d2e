// Command bench is the repository's benchmark: it drives whole scans
// through the public zmap library against benchmark-owned transports and
// the shipped netsim, checks every pass against an oracle, and prints
// every metric by name with its unit. README.md is the glossary.
//
//	go run ./bench -seed 1                     every workload, end to end, then traced
//	go run ./bench -aa                         two sets of the same build, compared
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//
// The last form is one run of one workload; it ends with one JSON line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		child    = flag.String("child", "", "internal: run the pass this JSON describes and print its result")
		name     = flag.String("workload", "", "run only this workload and end with one JSON result line")
		seed     = flag.Int64("seed", 1, "seed for everything generated (1 is the default, 2 the hold-out)")
		seconds  = flag.Int("seconds", 20, "how long each workload is measured for after its warm-up, recording off")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the traced run's per-layer metrics")
		aa       = flag.Bool("aa", false, "measure every workload twice and fail if the two sets differ by more than the bounds")
		baseline = flag.String("baseline", "", "with -aa: a result file of an earlier run to use as the first set")
	)
	flag.Parse()
	var err error
	switch {
	case *child != "":
		err = childMain(*child)
	case *name != "":
		err = oneRun(*name, *seed, *seconds, *trace == 1)
	case *aa:
		err = compareSets(*baseline, *seed, *seconds)
	default:
		err = everything(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("the oracle found failed operations")

// result is the one JSON line a -workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// oneRun is one run of one workload: the end-to-end metrics with
// recording off, or the separate traced run.
func oneRun(name string, seed int64, seconds int, trace bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	printHeader(seed)
	out := result{Metrics: make(map[string]metricValue)}
	rep := report{Env: readEnvironment(), Seed: seed, Seconds: seconds}
	var why []string
	if trace {
		res, err := traced(w, seed)
		if err != nil {
			return err
		}
		printTrace(res)
		rep.Traces = append(rep.Traces, res)
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{res.Metrics[m.name], m.unit}
		}
		out.Attempted, out.Failed, why = res.Attempted, res.Failed, res.Why
	} else {
		res, err := measure(w, seed, seconds)
		if err != nil {
			return err
		}
		printRun(res)
		rep.Runs = append(rep.Runs, res)
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{res.Metrics[m.name].Value, m.unit}
		}
		out.Attempted, out.Failed, why = res.Attempted, res.Failed, res.Why
	}
	out.Correct = out.Failed == 0
	if err := rep.save(fmt.Sprintf("%s-seed%d-trace%t.json", name, seed, trace)); err != nil {
		return err
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return err
	}
	if !out.Correct {
		return fmt.Errorf("%w: %s", errIncorrect, strings.Join(why, "; "))
	}
	return nil
}

// report is everything one invocation measured, as kept in bench/out.
type report struct {
	Env     environment
	Seed    int64
	Seconds int
	Runs    []runResult
	Traces  []traceResult `json:",omitempty"`
}

func (r *report) failed() (n uint64) {
	for _, run := range r.Runs {
		n += run.Failed
	}
	for _, t := range r.Traces {
		n += t.Failed
	}
	return n
}

func (r *report) save(name string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, name)
	fmt.Printf("\nresults kept in %s\n", path)
	return os.WriteFile(path, data, 0o644)
}

// measureAll measures every workload with recording off.
func measureAll(seed int64, seconds int) (*report, error) {
	rep := &report{Env: readEnvironment(), Seed: seed, Seconds: seconds}
	for _, w := range workloads {
		res, err := measure(w, seed, seconds)
		if err != nil {
			return nil, err
		}
		printRun(res)
		rep.Runs = append(rep.Runs, res)
	}
	return rep, nil
}

// everything is the default: every workload end to end, then every
// workload's traced run.
func everything(seed int64, seconds int) error {
	printHeader(seed)
	rep, err := measureAll(seed, seconds)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		res, err := traced(w, seed)
		if err != nil {
			return err
		}
		printTrace(res)
		rep.Traces = append(rep.Traces, res)
	}
	if err := rep.save(fmt.Sprintf("results-seed%d.json", seed)); err != nil {
		return err
	}
	if rep.failed() > 0 {
		return errIncorrect
	}
	return nil
}

// compareSets measures two sets of the same build (or loads the first
// from a result file) and holds every end-to-end metric of every workload
// to its bound.
func compareSets(baseline string, seed int64, seconds int) error {
	printHeader(seed)
	var a *report
	if baseline != "" {
		data, err := os.ReadFile(baseline)
		if err != nil {
			return err
		}
		a = new(report)
		if err := json.Unmarshal(data, a); err != nil {
			return fmt.Errorf("%s: %w", baseline, err)
		}
	} else {
		fmt.Println("\n== set A ==")
		var err error
		if a, err = measureAll(seed, seconds); err != nil {
			return err
		}
	}
	fmt.Println("\n== set B ==")
	b, err := measureAll(seed, seconds)
	if err != nil {
		return err
	}
	if err := b.save(fmt.Sprintf("results-seed%d.json", seed)); err != nil {
		return err
	}
	worse, err := compare(os.Stdout, a, b)
	if err != nil {
		return err
	}
	if a.failed()+b.failed() > 0 {
		return errIncorrect
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) differ between the two sets by more than their bound", worse)
	}
	return nil
}
