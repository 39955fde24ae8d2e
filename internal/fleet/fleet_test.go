package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
)

func TestFaultPlanParseRoundTrip(t *testing.T) {
	in := "kill:0@800ms,hang:1@1.2s,slow:2@500ms/300ms"
	plan, err := ParseFaultPlan(in)
	if err != nil {
		t.Fatalf("ParseFaultPlan: %v", err)
	}
	if len(plan.Events) != 3 {
		t.Fatalf("parsed %d events, want 3", len(plan.Events))
	}
	if plan.Events[1].Kind != FaultHang || plan.Events[1].Shard != 1 ||
		plan.Events[1].After != 1200*time.Millisecond {
		t.Fatalf("event 1 mangled: %+v", plan.Events[1])
	}
	if plan.Events[2].Duration != 300*time.Millisecond {
		t.Fatalf("slow duration lost: %+v", plan.Events[2])
	}
	reparsed, err := ParseFaultPlan(plan.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", plan.String(), err)
	}
	if reparsed.String() != plan.String() {
		t.Fatalf("round trip: %q != %q", reparsed.String(), plan.String())
	}
}

func TestFaultPlanParseErrors(t *testing.T) {
	for _, bad := range []string{
		"explode:0@1s",      // unknown kind
		"kill:0",            // no delay
		"kill:x@1s",         // bad shard
		"kill:0@soon",       // bad delay
		"slow:0@1s",         // slow without duration
		"kill:0@1s/200ms",   // duration on non-slow
		"slow:0@1s/forever", // bad duration
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	a := RandomFaultPlan(42, 3, 6, 2*time.Second, 300*time.Millisecond)
	b := RandomFaultPlan(42, 3, 6, 2*time.Second, 300*time.Millisecond)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	c := RandomFaultPlan(43, 3, 6, 2*time.Second, 300*time.Millisecond)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical plans")
	}
	for _, ev := range a.Events {
		if ev.Shard < 0 || ev.Shard >= 3 {
			t.Fatalf("event targets shard %d of 3", ev.Shard)
		}
		if ev.Kind == FaultSlow && (ev.Duration <= 0 || ev.Duration > 300*time.Millisecond) {
			t.Fatalf("slow duration out of bounds: %v", ev.Duration)
		}
	}
}

// writeRun lays a run file into the expected shard/epoch location.
func writeRun(t *testing.T, dir string, shard, epoch int, format, content string) {
	t.Helper()
	paths := PathsFor(dir, shard, epoch, format)
	if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths.Output, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergeTextExactlyOnce: duplicates across run files of one shard
// (crash re-probe) collapse to one row; output is sorted numerically.
func TestMergeTextExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	// Shard 0 crashed between epochs: 10.0.0.2 appears in both runs.
	writeRun(t, dir, 0, 1, "text", "10.0.0.9\n10.0.0.2\n")
	writeRun(t, dir, 0, 2, "text", "10.0.0.2\n10.0.0.1\n")
	writeRun(t, dir, 1, 1, "text", "10.0.0.10\n2.0.0.1\n")

	files, err := RunFiles(dir, 2, "text")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("found %d run files, want 3: %v", len(files), files)
	}
	var buf bytes.Buffer
	stats, err := MergeOutputs("text", files, &buf)
	if err != nil {
		t.Fatal(err)
	}
	want := "2.0.0.1\n10.0.0.1\n10.0.0.2\n10.0.0.9\n10.0.0.10\n"
	if buf.String() != want {
		t.Fatalf("merged output:\n%q\nwant:\n%q", buf.String(), want)
	}
	if stats.RowsRead != 6 || stats.UniqueRows != 5 || stats.Duplicates != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestMergeTornTailTolerated: a partial trailing line from a SIGKILLed
// writer is dropped (the row's target is re-probed after resume), but
// corruption mid-file stays a hard error.
func TestMergeTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	writeRun(t, dir, 0, 1, "text", "10.0.0.1\n10.0.0.2\n10.0.")
	files, _ := RunFiles(dir, 1, "text")
	var buf bytes.Buffer
	stats, err := MergeOutputs("text", files, &buf)
	if err != nil {
		t.Fatalf("merge with torn tail: %v", err)
	}
	if stats.TornRows != 1 || stats.UniqueRows != 2 {
		t.Fatalf("stats: %+v", stats)
	}

	writeRun(t, dir, 0, 2, "text", "garbage-line\n10.0.0.3\n")
	files, _ = RunFiles(dir, 1, "text")
	if _, err := MergeOutputs("text", files, &buf); err == nil {
		t.Fatal("mid-file corruption was silently accepted")
	}
}

func TestMergeCSVAndJSONL(t *testing.T) {
	dir := t.TempDir()
	hdr := "saddr,sport,classification,success,repeat,cooldown,ttl,timestamp\n"
	writeRun(t, dir, 0, 1, "csv", hdr+"10.0.0.2,80,synack,1,0,0,64,0.5\n")
	writeRun(t, dir, 1, 1, "csv", hdr+"10.0.0.1,80,synack,1,0,0,64,0.1\n10.0.0.2,80,synack,1,0,0,64,0.7\n")
	files, _ := RunFiles(dir, 2, "csv")
	var buf bytes.Buffer
	stats, err := MergeOutputs("csv", files, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 unique rows
		t.Fatalf("csv merge lines: %q", buf.String())
	}
	if !strings.HasPrefix(lines[1], "10.0.0.1,") || !strings.HasPrefix(lines[2], "10.0.0.2,") {
		t.Fatalf("csv merge order: %q", buf.String())
	}
	if stats.Duplicates != 1 {
		t.Fatalf("csv stats: %+v", stats)
	}

	jdir := t.TempDir()
	writeRun(t, jdir, 0, 1, "jsonl",
		`{"saddr":"10.0.0.5","sport":443,"classification":"synack","success":true,"repeat":false,"cooldown":false,"ttl":64,"timestamp":0.2}`+"\n"+
			`{"saddr":"10.0.0.5","sport":80,"classification":"synack","success":true,"repeat":false,"cooldown":false,"ttl":64,"timestamp":0.3}`+"\n")
	jfiles, _ := RunFiles(jdir, 1, "jsonl")
	buf.Reset()
	stats, err = MergeOutputs("jsonl", jfiles, &buf)
	if err != nil {
		t.Fatal(err)
	}
	jlines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(jlines) != 2 || !strings.Contains(jlines[0], `"sport":80`) {
		t.Fatalf("jsonl merge (same addr, port order): %q", buf.String())
	}
	if stats.UniqueRows != 2 {
		t.Fatalf("jsonl stats: %+v", stats)
	}
}

// testScan is the opaque scan document of these tests: no worker ever
// runs here, so nothing decodes it. testFingerprints is the expected
// fingerprint the caller supplies beside it, one per shard.
var testScan = json.RawMessage(`{"options":{"ranges":["10.9.0.0/24"],"seed":11}}`)

func testFingerprints(workers int) []checkpoint.Fingerprint {
	fps := make([]checkpoint.Fingerprint, workers)
	for i := range fps {
		fps[i] = checkpoint.Fingerprint{
			Seed: 11, Shards: workers, ShardIndex: i, Threads: 1, ShardMode: "pizza",
			ProbeModule: "tcp_synscan", Ports: "80", ProbesPerTarget: 1, TargetsDigest: "d1935",
		}
	}
	return fps
}

// TestRunWantsOneFingerprintPerShard: the coordinator cannot compute a
// fingerprint any more, so a caller that hands it the wrong number is
// refused before any state is touched.
func TestRunWantsOneFingerprintPerShard(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Workers: 2, Dir: t.TempDir(), Scan: testScan, Fingerprints: testFingerprints(1),
		Binary: "/bin/false",
	})
	if err == nil || !strings.Contains(err.Error(), "1 fingerprints for 2 workers") {
		t.Fatalf("Run returned %v, want the fingerprint count refusal", err)
	}
}

// TestShardHandoffFingerprintGate is the satellite-3 contract at the
// coordinator layer: a reclaimed shard's checkpoint is adopted only
// when (seed, shards, shard-index, probe, ports) match the fleet's
// expected slot fingerprint; any drift hard-fails the fleet with
// ErrFingerprintMismatch before a worker is ever spawned.
func TestShardHandoffFingerprintGate(t *testing.T) {
	fps := testFingerprints(1)

	mutations := map[string]func(*checkpoint.Fingerprint){
		"seed":   func(f *checkpoint.Fingerprint) { f.Seed = 999 },
		"shards": func(f *checkpoint.Fingerprint) { f.Shards = 4 },
		"index":  func(f *checkpoint.Fingerprint) { f.ShardIndex = 2 },
		"probe":  func(f *checkpoint.Fingerprint) { f.ProbeModule = "icmp_echoscan" },
		"ports":  func(f *checkpoint.Fingerprint) { f.Ports = "443" },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			paths := PathsFor(dir, 0, 1, "text")
			if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
				t.Fatal(err)
			}
			fp := fps[0]
			mutate(&fp)
			snap := &checkpoint.Snapshot{
				Tool: "zmapgo", WrittenAt: time.Now(), Phase: "send",
				Progress: []uint64{5}, Fingerprint: fp,
			}
			if err := checkpoint.Save(paths.Checkpoint, snap); err != nil {
				t.Fatal(err)
			}
			_, err := Run(context.Background(), Config{
				Workers: 1, Dir: dir, Scan: testScan, Fingerprints: fps,
				Binary: "/bin/false", // must never be reached
			})
			if !errors.Is(err, ErrFingerprintMismatch) {
				t.Fatalf("mutated %s: Run returned %v, want ErrFingerprintMismatch", name, err)
			}
		})
	}

	// Control: the unmutated fingerprint passes the gate — the run
	// proceeds to spawn (and fails differently, on the stub binary).
	dir := t.TempDir()
	paths := PathsFor(dir, 0, 1, "text")
	if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	snap := &checkpoint.Snapshot{
		Tool: "zmapgo", WrittenAt: time.Now(), Phase: "send",
		Progress: []uint64{5}, Fingerprint: fps[0],
	}
	if err := checkpoint.Save(paths.Checkpoint, snap); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), Config{
		Workers: 1, Dir: dir, Scan: testScan, Fingerprints: fps,
		Binary:         "/bin/false",
		MaxRespawns:    -1, // first crash is fatal: keeps the test fast
		RespawnBackoff: time.Millisecond,
	})
	if err == nil || errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("control run: %v (fingerprint gate misfired)", err)
	}
	if !errors.Is(err, ErrRespawnsExhausted) {
		t.Fatalf("control run failed for an unexpected reason: %v", err)
	}
}

func TestRateFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rate.pps")
	if got := ReadRateFile(path); got != 0 {
		t.Fatalf("missing file read as %g", got)
	}
	if err := writeRateFile(path, 12500.5); err != nil {
		t.Fatal(err)
	}
	if got := ReadRateFile(path); got != 12500.5 {
		t.Fatalf("round trip: %g", got)
	}
	os.WriteFile(path, []byte("not-a-number\n"), 0o644)
	if got := ReadRateFile(path); got != 0 {
		t.Fatalf("garbage read as %g", got)
	}
}

// TestLeaseGateRejectsForeignLease: a lease file from a different scan
// configuration stops the fleet before any supervision starts.
func TestLeaseGateRejectsForeignLease(t *testing.T) {
	fps := testFingerprints(1)
	dir := t.TempDir()
	paths := PathsFor(dir, 0, 1, "text")
	if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	foreign := fps[0]
	foreign.Seed = 555
	now := time.Now()
	lease := &checkpoint.Lease{
		FleetID: "other", ShardIndex: 0, Epoch: 4, OwnerPID: 1,
		WorkerID: "shard-0.epoch-4", State: checkpoint.LeaseRunning,
		GrantedAt: now, RenewedAt: now, TTLSecs: 1, Fingerprint: foreign,
	}
	if err := checkpoint.SaveLease(paths.Lease, lease); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), Config{
		Workers: 1, Dir: dir, Scan: testScan, Fingerprints: fps, Binary: "/bin/false",
	})
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("foreign lease accepted: %v", err)
	}
}
