package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestCompareReports(t *testing.T) {
	allocs := func(n int64) *int64 { return &n }
	old := report{Procs: 2, Results: []entry{
		{Name: "BenchmarkA-2", NsPerOp: 100, AllocsPerOp: allocs(0)},
		{Name: "BenchmarkB-2", NsPerOp: 200, AllocsPerOp: allocs(3)},
		{Name: "BenchmarkOnlyOld-2", NsPerOp: 1},
	}}
	data, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(a, b entry) report {
		return report{Procs: 2, Results: []entry{a, b, {Name: "BenchmarkOnlyNew-2", NsPerOp: 1}}}
	}
	same := run(old.Results[0], old.Results[1])
	slower := run(entry{Name: "BenchmarkA-2", NsPerOp: 111, AllocsPerOp: allocs(0)}, old.Results[1])
	leaky := run(entry{Name: "BenchmarkA-2", NsPerOp: 50, AllocsPerOp: allocs(1)}, old.Results[1])
	otherProcs := same
	otherProcs.Procs = 4

	for _, c := range []struct {
		name      string
		cur       report
		tolerance string
		want      int
	}{
		{"unchanged, rows on one side only are skipped", same, "10%", 0},
		{"ns/op is not checked without a tolerance", slower, "", 0},
		{"ns/op inside the tolerance", slower, "11%", 0},
		{"ns/op beyond the tolerance", slower, "10%", 1},
		{"an allocs/op rise fails however fast", leaky, "", 1},
		{"a different GOMAXPROCS is refused", otherProcs, "", 1},
		{"a tolerance that is not a percentage", same, "0.1", 1},
	} {
		if got := compareReports(path, c.cur, c.tolerance); got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
	}
	if got := compareReports(filepath.Join(t.TempDir(), "missing.json"), same, ""); got != 1 {
		t.Errorf("missing baseline: exit code %d, want 1", got)
	}
}

func TestParseBenchLineKeepsCustomMetrics(t *testing.T) {
	e, ok := parseBenchLine("BenchmarkSendPathScan/threads=2-2   	     200	   9876543 ns/op	        75.31 ns/probe")
	if !ok || e.NsPerOp != 9876543 || e.Metrics["ns/probe"] != 75.31 || e.AllocsPerOp != nil {
		t.Errorf("parsed %+v, ok %v", e, ok)
	}
	e, ok = parseBenchLine("BenchmarkA-2  10  5.5 ns/op  8 B/op  1 allocs/op")
	if !ok || *e.BytesPerOp != 8 || *e.AllocsPerOp != 1 || e.Metrics != nil {
		t.Errorf("parsed %+v, ok %v", e, ok)
	}
}
