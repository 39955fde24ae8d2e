package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zmapgo/zmap"
)

// TestMain makes this test binary usable as its own fleet worker: the
// coordinator spawned by the fleet subcommand re-executes the current
// binary, which under `go test` is the test binary itself.
func TestMain(m *testing.M) {
	if zmap.FleetWorkerMain() {
		return
	}
	os.Exit(m.Run())
}

// TestCLIFleetScan drives the fleet subcommand end-to-end: two worker
// processes, merged output, summary metadata, decision journal.
func TestCLIFleetScan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet scan")
	}
	dir := t.TempDir()
	code := runFleet([]string{
		"-workers", "2",
		"-fleet-dir", dir,
		"-r", "10.9.0.0/22",
		"-p", "80",
		"-seed", "11",
		"-rate", "20000",
		"-cooldown-time", "200ms",
		"-sim-lossless",
		"-sim-time-scale", "0",
	})
	if code != 0 {
		t.Fatalf("fleet exit code %d", code)
	}
	merged, err := os.ReadFile(filepath.Join(dir, "merged.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(merged), "\n"); lines < 3 {
		t.Errorf("only %d merged rows", lines)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "fleet-metadata.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workers": 2`, `"merge"`, `"shards"`} {
		if !strings.Contains(string(meta), want) {
			t.Errorf("fleet metadata missing %s", want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "fleet-trace.jsonl")); err != nil {
		t.Errorf("no decision journal: %v", err)
	}
}

// TestCLIFleetBadFlags covers the config-error exits.
func TestCLIFleetBadFlags(t *testing.T) {
	if code := runFleet([]string{"-r", "10.0.0.0/24"}); code != 2 {
		t.Errorf("missing --seed exited %d, want 2", code)
	}
	if code := runFleet([]string{"-seed", "1", "-fault-plan", "explode:0@1s"}); code != 2 {
		t.Errorf("bad fault plan exited %d, want 2", code)
	}
	if code := runFleet([]string{"-seed", "1", "-fault-plan", "kill:0@1s", "-fault-seed", "3"}); code != 2 {
		t.Errorf("conflicting fault flags exited %d, want 2", code)
	}
}

// TestCLIFleetHonoursBlocklistFile: -b is the ZMap-format blocklist file
// in the fleet subcommand too, and it reaches the workers — the merged
// output has rows, none of them from a blocklisted prefix.
func TestCLIFleetHonoursBlocklistFile(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet scan")
	}
	dir := t.TempDir()
	bl := filepath.Join(dir, "blocklist.conf")
	if err := os.WriteFile(bl, []byte("# the lower half\n10.9.0.0/23   # annotated\n\n10.9.2.0/24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code := runFleet([]string{
		"-workers", "2", "-fleet-dir", dir,
		"-r", "10.9.0.0/22", "-b", bl, "-seed", "11",
		"-cooldown-time", "200ms", "-sim-lossless", "-sim-time-scale", "0",
	})
	if code != 0 {
		t.Fatalf("fleet exit code %d", code)
	}
	merged, err := os.ReadFile(filepath.Join(dir, "merged.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Fields(string(merged))
	if len(rows) == 0 {
		t.Fatal("no merged rows: the open quarter was not scanned")
	}
	for _, row := range rows {
		if !strings.HasPrefix(row, "10.9.3.") {
			t.Errorf("row %q is inside the blocklist file", row)
		}
	}
	if code := runFleet([]string{"-seed", "1", "-b", filepath.Join(dir, "missing.conf")}); code != 1 {
		t.Errorf("missing blocklist file exited %d, want 1", code)
	}
}

// TestScanFlagsAreSharedVerbatim: every flag that describes a scan is
// defined once, so both subcommands print it with the same name, default
// and usage text — and a fleet accepts every one of them.
func TestScanFlagsAreSharedVerbatim(t *testing.T) {
	shared := flag.NewFlagSet("scan", flag.ContinueOnError)
	scanFlags(shared, new(zmap.Options))
	help := map[string]string{
		"zmapgo":       captureStderr(t, func() { run([]string{"-h"}) }),
		"zmapgo fleet": captureStderr(t, func() { runFleet([]string{"-h"}) }),
	}
	n := 0
	shared.VisitAll(func(f *flag.Flag) {
		n++
		// One flag's help entry, as PrintDefaults lays it out.
		one := flag.NewFlagSet("one", flag.ContinueOnError)
		one.Var(f.Value, f.Name, f.Usage)
		var entry strings.Builder
		one.SetOutput(&entry)
		one.PrintDefaults()
		for cmd, text := range help {
			if !strings.Contains(text, entry.String()) {
				t.Errorf("%s does not print -%s as the shared table defines it:\n%s", cmd, f.Name, entry.String())
			}
		}
	})
	if n < 30 {
		t.Errorf("the shared table registers %d flags; the scan's flags have moved out of it", n)
	}
	for _, name := range []string{"probe-tcp-options", "static-ip-id", "B", "batch-size", "retries", "adaptive-rate", "cooldown-max"} {
		if shared.Lookup(name) == nil {
			t.Errorf("-%s is not in the shared table, so a fleet cannot set it", name)
		}
	}
	// The per-process flags stay off the fleet.
	for _, name := range []string{"shards", "shard", "checkpoint", "resume-from", "status-updates-file", "metrics-addr", "sim-fault-prob"} {
		if strings.Contains(help["zmapgo fleet"], "  -"+name+" ") {
			t.Errorf("zmapgo fleet defines the per-process flag -%s", name)
		}
		if !strings.Contains(help["zmapgo"], "  -"+name+" ") {
			t.Errorf("zmapgo lost the flag -%s", name)
		}
	}
}
