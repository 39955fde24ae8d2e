package zmap

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
	"zmapgo/internal/target"
	"zmapgo/internal/trace"
)

// TestMain doubles this test binary as a fleet worker executable: a
// coordinator under test spawns os.Executable() — this binary — with
// the worker environment set, and FleetWorkerMain takes over before the
// test runner would start.
func TestMain(m *testing.M) {
	if FleetWorkerMain() {
		return
	}
	os.Exit(m.Run())
}

// fleetSim is the shared simulated-internet shape for fleet tests:
// lossless and blowback-free, so the response set is a pure function of
// the probed targets and exact-count comparisons are meaningful.
const fleetSimSeed = 1234

var fleetSim = SimOptions{Seed: fleetSimSeed, Lossless: true, DisableBlowback: true}

// referenceLines runs the same scan uninterrupted in a single process
// and returns its result lines sorted the way the fleet merge sorts:
// numerically by address, then port.
func referenceLines(t *testing.T, ranges []string, seed int64) []string {
	t.Helper()
	lines := scanLines(t, Options{Ranges: ranges, Seed: seed, Cooldown: 200 * time.Millisecond}, fleetSim)
	sort.Slice(lines, func(i, j int) bool {
		a, _ := target.ParseIPv4(lines[i])
		b, _ := target.ParseIPv4(lines[j])
		return a < b
	})
	// Dedup (the engine already dedups; belt and braces).
	uniq := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			uniq = append(uniq, l)
		}
	}
	return uniq
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Fields(string(data))
}

func readFleetJournal(t *testing.T, path string) []trace.JEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Journal
}

func countJournal(entries []trace.JEntry, kind string) int {
	n := 0
	for _, e := range entries {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// fleetOpts is the shared configuration for the acceptance runs.
func fleetOpts(dir string, ranges []string) FleetOptions {
	return FleetOptions{
		Workers: 3,
		Dir:     dir,
		Scan: Options{
			Ranges:   ranges,
			Seed:     77,
			Rate:     15000, // aggregate: 5000 pps per live worker
			Cooldown: 200 * time.Millisecond,
		},
		Sim:                fleetSim,
		LeaseTTL:           700 * time.Millisecond,
		CheckpointInterval: 150 * time.Millisecond,
		MaxRespawns:        4,
		RespawnBackoff:     100 * time.Millisecond,
	}
}

// TestFleetChaosExactlyOnce is the acceptance test: a 3-worker fleet is
// run once fault-free and once with a seeded fault schedule that kills
// or hangs every worker mid-scan. Both merged outputs must be byte-
// equivalent to the uninterrupted single-process reference union, every
// reclaim decision must be journaled, and the chaos run must finish
// within 2x the fault-free wall clock.
func TestFleetChaosExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test")
	}
	ranges := []string{"10.0.0.0/17"} // 32768 addrs, ~2.2s per shard at 5000 pps
	ref := referenceLines(t, ranges, 77)
	if len(ref) == 0 {
		t.Fatal("reference scan found nothing; the comparison would be vacuous")
	}
	refBytes := strings.Join(ref, "\n") + "\n"

	// Fault-free fleet run.
	cleanDir := t.TempDir()
	cleanStart := time.Now()
	cleanRes, err := RunFleet(context.Background(), fleetOpts(cleanDir, ranges))
	if err != nil {
		t.Fatalf("clean fleet run: %v", err)
	}
	cleanWall := time.Since(cleanStart)
	cleanMerged, err := os.ReadFile(cleanRes.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if string(cleanMerged) != refBytes {
		t.Fatalf("clean fleet merge diverges from reference: %d vs %d rows",
			len(strings.Fields(string(cleanMerged))), len(ref))
	}
	if cleanRes.Reclaims != 0 {
		t.Fatalf("clean run reclaimed %d times", cleanRes.Reclaims)
	}

	// Chaos run: every one of the 3 workers is killed or hung once,
	// mid-scan (the send phase is ~2.2s per shard).
	chaosDir := t.TempDir()
	opts := fleetOpts(chaosDir, ranges)
	plan, err := ParseFleetFaults("kill:0@800ms,hang:1@900ms,kill:2@1300ms")
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = plan
	chaosStart := time.Now()
	chaosRes, err := RunFleet(context.Background(), opts)
	if err != nil {
		t.Fatalf("chaos fleet run: %v", err)
	}
	chaosWall := time.Since(chaosStart)

	// Exactly-once: the merged output equals the reference union even
	// though shards were re-probed across crash boundaries.
	chaosMerged, err := os.ReadFile(chaosRes.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if string(chaosMerged) != refBytes {
		t.Fatalf("chaos fleet merge diverges from reference: %d vs %d rows",
			len(strings.Fields(string(chaosMerged))), len(ref))
	}
	if chaosRes.FaultsInjected != 3 {
		t.Fatalf("injected %d faults, want 3", chaosRes.FaultsInjected)
	}
	if chaosRes.Reclaims != 3 {
		t.Fatalf("reclaimed %d shards, want 3 (one per fault)", chaosRes.Reclaims)
	}
	// At-least-once under the hood: the crash re-probe overlap shows
	// up as duplicates the merge collapsed (kills mid-send with a
	// 150ms checkpoint interval essentially always re-probe something;
	// zero would mean the faults landed outside the send phase).
	if chaosRes.Merge.Duplicates == 0 {
		t.Log("note: no cross-run duplicates; faults may have landed at phase edges")
	}

	// Every reclaim decision is journaled, with its cause and respawn.
	entries := readFleetJournal(t, filepath.Join(chaosDir, "fleet-trace.jsonl"))
	if n := countJournal(entries, trace.JFleetReclaim); n != 3 {
		t.Fatalf("journal has %d reclaim entries, want 3", n)
	}
	if n := countJournal(entries, trace.JFleetRespawn); n != 3 {
		t.Fatalf("journal has %d respawn entries, want 3", n)
	}
	if n := countJournal(entries, trace.JFleetFault); n != 3 {
		t.Fatalf("journal has %d fault entries, want 3", n)
	}
	// The hang must have been detected by lease staleness, not exit.
	if n := countJournal(entries, trace.JFleetLeaseExpired); n < 1 {
		t.Fatal("hung worker produced no lease-expiry journal entry")
	}
	// Rate redistribution: losing one of three workers moves the
	// budget to 7500 pps per survivor; recovery returns it to 5000.
	sawHalf, sawThird := false, false
	for _, e := range entries {
		if e.Kind == trace.JFleetRateRealloc {
			switch e.RatePPS {
			case 7500:
				sawHalf = true
			case 5000:
				sawThird = true
			}
		}
	}
	if !sawHalf || !sawThird {
		t.Fatalf("rate reallocation not observed (7500: %v, 5000: %v)", sawHalf, sawThird)
	}

	// Bounded recovery: chaos wall clock within 2x fault-free.
	if chaosWall > 2*cleanWall {
		t.Fatalf("chaos run took %v, over 2x the fault-free %v", chaosWall, cleanWall)
	}
	t.Logf("clean=%v chaos=%v reclaims=%d dups=%d rows=%d",
		cleanWall.Round(time.Millisecond), chaosWall.Round(time.Millisecond),
		chaosRes.Reclaims, chaosRes.Merge.Duplicates, chaosRes.Merge.UniqueRows)
}

// TestFleetSlowWorkerNotReclaimed: a pause shorter than the lease TTL
// must ride out on heartbeat slack — reclaiming a merely-slow worker
// would double-scan its shard for nothing.
func TestFleetSlowWorkerNotReclaimed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	dir := t.TempDir()
	plan, err := ParseFleetFaults("slow:0@400ms/250ms")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFleet(context.Background(), FleetOptions{
		Workers: 1,
		Dir:     dir,
		Scan: Options{
			Ranges:   []string{"10.2.0.0/20"}, // 4096 addrs
			Seed:     31,
			Rate:     4000,
			Cooldown: 150 * time.Millisecond,
		},
		Sim:                fleetSim,
		LeaseTTL:           900 * time.Millisecond,
		CheckpointInterval: 100 * time.Millisecond,
		Faults:             plan,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if res.Reclaims != 0 {
		t.Fatalf("slow worker was reclaimed %d times", res.Reclaims)
	}
	if res.FaultsInjected != 1 {
		t.Fatalf("injected %d faults, want 1", res.FaultsInjected)
	}
	entries := readFleetJournal(t, filepath.Join(dir, "fleet-trace.jsonl"))
	if n := countJournal(entries, trace.JFleetReclaim); n != 0 {
		t.Fatalf("journal shows %d reclaims for a slow-only fault", n)
	}
	ref := referenceLines(t, []string{"10.2.0.0/20"}, 31)
	got := readLines(t, res.MergedOutput)
	if strings.Join(got, ",") != strings.Join(ref, ",") {
		t.Fatalf("slow-run merge diverges: %d vs %d rows", len(got), len(ref))
	}
}

// TestFleetEqualsSingleProcessUnderEveryOption: a fleet is the single
// process it claims to equal under options it could not carry before
// the scan travelled whole — a non-default SYN option layout (which
// changes who answers), the static IP ID, a batch size, a blocklist and
// a second port. The merged output is the single-process scan's,
// sorted-unique, and no row comes from a blocklisted prefix.
func TestFleetEqualsSingleProcessUnderEveryOption(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	scan := Options{
		Ranges:     []string{"10.5.0.0/21"}, // 2048 addrs, 2 ports
		Blocklist:  []string{"10.5.1.0/24", "10.5.4.0/23"},
		Ports:      "80,443",
		TCPOptions: "optimal",
		StaticIPID: true,
		BatchSize:  16,
		Seed:       61,
		Cooldown:   150 * time.Millisecond,
	}
	res, err := RunFleet(context.Background(), FleetOptions{
		Workers: 2,
		Dir:     t.TempDir(),
		Scan:    scan,
		Sim:     fleetSim,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	got := sortedUnique(readLines(t, res.MergedOutput))
	want := sortedUnique(scanLines(t, scan, fleetSim))
	if len(want) < 20 {
		t.Fatalf("reference scan found only %d rows; the comparison proves nothing", len(want))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fleet merge diverges from the single process: %d vs %d rows", len(got), len(want))
	}
	for _, row := range got {
		for _, blocked := range []string{"10.5.1.", "10.5.4.", "10.5.5."} {
			if strings.HasPrefix(row, blocked) {
				t.Fatalf("row %q is inside the blocklist", row)
			}
		}
	}
	// Each worker's own summary says what it ran with.
	for _, sh := range res.Shards {
		m := sh.Summary
		if m.OptionLayout != "optimal" || m.RandomIPID || m.Ports != "80,443" || m.Blocklisted != 768 {
			t.Errorf("shard %d ran with layout %q, random IP ID %v, ports %q, %d blocklisted",
				sh.Shard, m.OptionLayout, m.RandomIPID, m.Ports, m.Blocklisted)
		}
	}
}

// TestFleetRerunAdoptsFinishedShards: re-running a fleet over its own
// completed directory must not rescan — finished shards are recognized
// by their done leases and commit records, and the merge is rebuilt
// from the existing run files.
func TestFleetRerunAdoptsFinishedShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	dir := t.TempDir()
	opts := FleetOptions{
		Workers: 2,
		Dir:     dir,
		Scan: Options{
			Ranges:   []string{"10.3.0.0/22"}, // 1024 addrs, fast
			Seed:     13,
			Cooldown: 100 * time.Millisecond,
		},
		Sim: fleetSim,
	}
	res1, err := RunFleet(context.Background(), opts)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	merged1, err := os.ReadFile(res1.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	res2, err := RunFleet(context.Background(), opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	rerunWall := time.Since(start)
	merged2, err := os.ReadFile(res2.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged1, merged2) {
		t.Fatal("rerun over a finished directory changed the merged output")
	}
	entries := readFleetJournal(t, filepath.Join(dir, "fleet-trace.jsonl"))
	adopts := 0
	for _, e := range entries {
		if e.Kind == trace.JFleetAdopt && e.Reason == "already_done" {
			adopts++
		}
	}
	if adopts != 2 {
		t.Fatalf("rerun adopted %d finished shards, want 2", adopts)
	}
	if n := countJournal(entries, trace.JFleetSpawn); n != 0 {
		t.Fatalf("rerun spawned %d workers over a finished directory", n)
	}
	if rerunWall > 5*time.Second {
		t.Fatalf("rerun over finished directory took %v", rerunWall)
	}
}

// workerSpecFixture builds an on-disk shard state for direct
// runFleetWorker tests (no processes involved).
func workerSpecFixture(t *testing.T, dir string, epoch int) (*fleet.WorkerSpec, checkpoint.Fingerprint) {
	t.Helper()
	cfg := oneShardConfig(t, Options{
		Ranges:   []string{"10.4.0.0/26"},
		Seed:     19,
		Cooldown: 50 * time.Millisecond,
	}, SimOptions{Seed: fleetSimSeed, Lossless: true})
	paths := fleet.PathsFor(dir, 0, epoch, "text")
	if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := &fleet.WorkerSpec{
		FleetID: "test-fleet", Shard: 0, Shards: 1, Epoch: epoch,
		Scan: cfg.Scan, Paths: paths,
		CheckpointInterval: 100 * time.Millisecond,
		HeartbeatInterval:  100 * time.Millisecond,
	}
	if err := fleet.SaveWorkerSpec(paths.Spec, spec); err != nil {
		t.Fatal(err)
	}
	return spec, cfg.Fingerprints[0]
}

// oneShardConfig is what RunFleet would hand the coordinator for a
// one-worker fleet of this scan: the document a worker decodes and the
// fingerprint expected of shard 0.
func oneShardConfig(t *testing.T, scan Options, sim SimOptions) fleet.Config {
	t.Helper()
	cfg, err := FleetOptions{Workers: 1, Scan: scan, Sim: sim}.config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func writeLease(t *testing.T, path string, epoch int, fp checkpoint.Fingerprint) {
	t.Helper()
	now := time.Now()
	l := &checkpoint.Lease{
		FleetID: "test-fleet", ShardIndex: 0, Epoch: epoch,
		WorkerID:  fmt.Sprintf("shard-0.epoch-%d", epoch),
		State:     checkpoint.LeaseGranted,
		GrantedAt: now, RenewedAt: now, TTLSecs: 5, Fingerprint: fp,
	}
	if err := checkpoint.SaveLease(path, l); err != nil {
		t.Fatal(err)
	}
}

// TestFleetWorkerFencedAtStart: a worker whose shard was re-granted
// before it could adopt its lease must exit fenced without scanning.
func TestFleetWorkerFencedAtStart(t *testing.T) {
	dir := t.TempDir()
	spec, fp := workerSpecFixture(t, dir, 1)
	writeLease(t, spec.Paths.Lease, 2, fp) // epoch moved past the spec's 1
	if code := runFleetWorker(spec.Paths.Spec); code != fleet.ExitFenced {
		t.Fatalf("fenced worker exited %d, want %d", code, fleet.ExitFenced)
	}
	if _, err := os.Stat(spec.Paths.Metadata); err == nil {
		t.Fatal("fenced worker wrote a commit record")
	}
}

// TestFleetWorkerRefusesForeignCheckpoint is satellite-3's worker-side
// half: even if a mismatched checkpoint slips past the coordinator, the
// worker's own Compile-time verification refuses the handoff with the
// dedicated exit code instead of scanning the wrong slice.
func TestFleetWorkerRefusesForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec, fp := workerSpecFixture(t, dir, 1)
	spec.Resume = true
	if err := fleet.SaveWorkerSpec(spec.Paths.Spec, spec); err != nil {
		t.Fatal(err)
	}
	writeLease(t, spec.Paths.Lease, 1, fp)
	foreign := fp
	foreign.Seed = fp.Seed + 1
	snap := &checkpoint.Snapshot{
		Tool: "zmapgo", WrittenAt: time.Now(), Phase: "send",
		Progress: []uint64{3}, Fingerprint: foreign,
	}
	if err := checkpoint.Save(spec.Paths.Checkpoint, snap); err != nil {
		t.Fatal(err)
	}
	if code := runFleetWorker(spec.Paths.Spec); code != fleet.ExitFingerprint {
		t.Fatalf("worker exited %d on foreign checkpoint, want %d", code, fleet.ExitFingerprint)
	}
}

// TestFleetWorkerCompletesShard: the direct (in-process) happy path —
// adopt, scan, commit metadata, mark the lease done.
func TestFleetWorkerCompletesShard(t *testing.T) {
	dir := t.TempDir()
	spec, fp := workerSpecFixture(t, dir, 1)
	writeLease(t, spec.Paths.Lease, 1, fp)
	if code := runFleetWorker(spec.Paths.Spec); code != fleet.ExitOK {
		t.Fatalf("worker exited %d", code)
	}
	if _, err := os.Stat(spec.Paths.Metadata); err != nil {
		t.Fatal("no commit record written")
	}
	l, err := checkpoint.LoadLease(spec.Paths.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if l.State != checkpoint.LeaseDone {
		t.Fatalf("lease state %q after completion", l.State)
	}
	ref := referenceLines(t, []string{"10.4.0.0/26"}, 19)
	got := readLines(t, spec.Paths.Output)
	sort.Slice(got, func(i, j int) bool {
		a, _ := target.ParseIPv4(got[i])
		b, _ := target.ParseIPv4(got[j])
		return a < b
	})
	if strings.Join(got, ",") != strings.Join(ref, ",") {
		t.Fatalf("single-shard worker output diverges: %d vs %d rows", len(got), len(ref))
	}
}
