package zmap

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
	"zmapgo/internal/fleetnet"
	"zmapgo/internal/trace"
)

// partitionedPlane simulates a worker cut off from its coordinator:
// every lease renewal fails at the transport, while the rest of the
// plane (local filesystem) keeps working.
type partitionedPlane struct {
	fleet.WorkerPlane
}

func (p *partitionedPlane) Renew(pid int, now time.Time) (float64, error) {
	return -1, errors.New("dial tcp: connection refused (simulated partition)")
}

// TestFleetWorkerSelfFencesPastTTL is satellite-2's proof: a worker
// whose renewals fail for longer than the lease TTL must presume the
// coordinator reclaimed its shard and self-fence — abort the scan,
// leave no commit record, exit fenced — instead of retrying forever.
// Past one TTL the coordinator's reclaim clock has fired, so a worker
// still scanning would mean two live owners of the same shard; the
// self-fence is what makes that window bounded from the worker's side
// of the partition too.
func TestFleetWorkerSelfFencesPastTTL(t *testing.T) {
	dir := t.TempDir()
	cfg := oneShardConfig(t, Options{
		Ranges:   []string{"10.6.0.0/20"}, // 4096 addrs: ~2.7s at 1500 pps
		Seed:     23,
		Rate:     1500,
		Cooldown: 100 * time.Millisecond,
	}, fleetSim)
	paths := fleet.PathsFor(dir, 0, 1, "text")
	if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := &fleet.WorkerSpec{
		FleetID: "test-fleet", Shard: 0, Shards: 1, Epoch: 1,
		Scan: cfg.Scan, Paths: paths,
		LeaseTTL:           400 * time.Millisecond,
		HeartbeatInterval:  100 * time.Millisecond,
		CheckpointInterval: 100 * time.Millisecond,
	}
	writeLease(t, paths.Lease, 1, cfg.Fingerprints[0])

	plane := &partitionedPlane{fleet.NewFSWorkerPlane(spec, nil)}
	start := time.Now()
	code := runFleetWorkerPlane(spec, plane, nil)
	elapsed := time.Since(start)

	if code != fleet.ExitFenced {
		t.Fatalf("partitioned worker exited %d, want %d (fenced)", code, fleet.ExitFenced)
	}
	if _, err := os.Stat(paths.Metadata); err == nil {
		t.Fatal("self-fenced worker committed anyway")
	}
	// The fence must fire within TTL plus modest heartbeat/teardown
	// slack — far before the ~3s the full scan would take. A worker
	// still alive past this bound would overlap a reclaimed successor.
	if elapsed < spec.LeaseTTL {
		t.Fatalf("fenced after %v, before the TTL (%v) elapsed", elapsed, spec.LeaseTTL)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("self-fence took %v; the worker outlived the reclaim horizon", elapsed)
	}
}

// TestFleetRerunAdoptsLostDoneMark is satellite-3's end-to-end half: a
// finished worker whose lease done-mark write failed (commit record
// durable, lease still claiming "running") must be adopted as finished
// on rerun — never re-scanned.
func TestFleetRerunAdoptsLostDoneMark(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	dir := t.TempDir()
	opts := FleetOptions{
		Workers: 2,
		Dir:     dir,
		Scan: Options{
			Ranges:   []string{"10.3.64.0/22"}, // 1024 addrs, fast
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

	// Fault injection after the fact: shard 0 committed, but its
	// done-mark write "failed" — the lease still reads as a running
	// worker whose renewals went stale.
	leasePath := fleet.PathsFor(dir, 0, 1, "text").Lease
	l, err := checkpoint.LoadLease(leasePath)
	if err != nil {
		t.Fatal(err)
	}
	l.State = checkpoint.LeaseRunning
	l.RenewedAt = time.Now().Add(-time.Hour)
	if err := checkpoint.SaveLease(leasePath, l); err != nil {
		t.Fatal(err)
	}

	res2, err := RunFleet(context.Background(), opts)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	merged2, err := os.ReadFile(res2.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if string(merged1) != string(merged2) {
		t.Fatal("rerun over a committed shard changed the merged output")
	}
	entries := readFleetJournal(t, filepath.Join(dir, "fleet-trace.jsonl"))
	adopts, lostMark := 0, false
	for _, e := range entries {
		if e.Kind == trace.JFleetAdopt && e.Reason == "already_done" {
			adopts++
			if strings.Contains(e.Detail, "done-mark lost") {
				lostMark = true
			}
		}
	}
	if adopts != 2 {
		t.Fatalf("rerun adopted %d finished shards, want 2", adopts)
	}
	if !lostMark {
		t.Fatal("the lost done-mark was not attributed in the adoption journal entry")
	}
	if n := countJournal(entries, trace.JFleetSpawn); n != 0 {
		t.Fatalf("rerun re-spawned %d workers over committed shards", n)
	}
}

// TestFleetNetCleanRun: the network control plane, fault-free. The
// merged output must equal the single-process reference, and the fleet
// directory must stay byte-compatible with the filesystem plane's
// layout (same lease/spec/run/metadata files in the same places).
func TestFleetNetCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	ranges := []string{"10.2.0.0/22"} // 1024 addrs
	ref := referenceLines(t, ranges, 41)
	dir := t.TempDir()
	opts := FleetOptions{
		Workers: 2,
		Dir:     dir,
		Scan: Options{
			Ranges:   ranges,
			Seed:     41,
			Cooldown: 150 * time.Millisecond,
		},
		Sim:                fleetSim,
		LeaseTTL:           time.Second,
		CheckpointInterval: 150 * time.Millisecond,
		Listen:             "127.0.0.1:0",
	}
	res, err := RunFleet(context.Background(), opts)
	if err != nil {
		t.Fatalf("net-plane fleet run: %v", err)
	}
	merged, err := os.ReadFile(res.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if string(merged) != strings.Join(ref, "\n")+"\n" {
		t.Fatalf("net-plane merge diverges from reference: %d vs %d rows",
			len(strings.Fields(string(merged))), len(ref))
	}
	// Byte-compat: the same shard-directory files the filesystem plane
	// leaves behind, so resume and offline analysis are plane-agnostic.
	for shard := 0; shard < 2; shard++ {
		p := fleet.PathsFor(dir, shard, 1, "text")
		for _, f := range []string{p.Spec, p.Lease, p.Output, p.Metadata} {
			if _, err := os.Stat(f); err != nil {
				t.Errorf("shard %d missing plane-shared file %s", shard, filepath.Base(f))
			}
		}
		l, err := checkpoint.LoadLease(p.Lease)
		if err != nil {
			t.Fatal(err)
		}
		if l.State != checkpoint.LeaseDone {
			t.Errorf("shard %d lease state %q after commit", shard, l.State)
		}
	}
	entries := readFleetJournal(t, filepath.Join(dir, "fleet-trace.jsonl"))
	if countJournal(entries, trace.JFleetNetListen) != 1 {
		t.Fatal("no listen record in the decision journal")
	}
}

// TestFleetNetRemoteWorkersJoin: remote-worker mode end to end, in
// process — the coordinator offers grants instead of spawning, two
// JoinFleet workers long-poll them over HTTP, run, report exits, and
// the merge still equals the reference.
func TestFleetNetRemoteWorkersJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("networked test")
	}
	ranges := []string{"10.2.128.0/23"} // 512 addrs
	ref := referenceLines(t, ranges, 53)
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	opts := FleetOptions{
		Workers: 2,
		Dir:     dir,
		Scan: Options{
			Ranges:   ranges,
			Seed:     53,
			Cooldown: 150 * time.Millisecond,
		},
		Sim:                fleetSim,
		LeaseTTL:           time.Second,
		CheckpointInterval: 100 * time.Millisecond,
		Listen:             "127.0.0.1:0",
		JoinToken:          "test-token",
		RemoteWorkers:      true,
		OnListen: func(bound string) {
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					JoinFleet(ctx, JoinFleetOptions{URL: bound, Token: "test-token"})
				}()
			}
		},
	}
	res, err := RunFleet(context.Background(), opts)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatalf("remote-worker fleet run: %v", err)
	}
	merged, err := os.ReadFile(res.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if string(merged) != strings.Join(ref, "\n")+"\n" {
		t.Fatalf("remote-worker merge diverges from reference: %d vs %d rows",
			len(strings.Fields(string(merged))), len(ref))
	}
	entries := readFleetJournal(t, filepath.Join(dir, "fleet-trace.jsonl"))
	if n := countJournal(entries, trace.JFleetOffer); n < 2 {
		t.Fatalf("journal has %d offers, want >=2", n)
	}
	if n := countJournal(entries, trace.JFleetAcquire); n < 2 {
		t.Fatalf("journal has %d acquires, want >=2", n)
	}
	if n := countJournal(entries, trace.JFleetSpawn); n != 0 {
		t.Fatalf("remote-worker mode spawned %d local workers", n)
	}
}

// TestFleetNetPartitionExactlyOnce is the PR's acceptance test: a
// 3-worker fleet joins its coordinator through a seeded chaos proxy
// that drops, duplicates, and delays RPCs, one-way-partitions shard 0
// (requests land, responses vanish — the idempotency gauntlet), and
// fully partitions shard 1 for longer than the lease TTL (forcing a
// reclaim through real network failure, not an injected kill). The
// merged output must still be byte-identical to the fault-free
// single-process reference, and every recovery decision must be
// attributed in the journal.
func TestFleetNetPartitionExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process partition gauntlet")
	}
	ranges := []string{"10.0.0.0/17"} // 32768 addrs, ~2.2s per shard at 5000 pps
	ref := referenceLines(t, ranges, 77)
	if len(ref) == 0 {
		t.Fatal("reference scan found nothing; the comparison would be vacuous")
	}
	refBytes := strings.Join(ref, "\n") + "\n"

	// The gauntlet: ambient drop/dup/delay from 250ms, a one-way
	// partition of shard 0 at 600ms (server acts, worker never hears),
	// a full partition of shard 1 from 1s to 1.8s — 800ms, past the
	// 700ms TTL, so the coordinator must reclaim through the partition —
	// then light residual loss until the air clears.
	tl, err := fleetnet.ParseTimeline(
		"0:pass;250ms:drop=0.15,dup=0.2,delay=3ms;600ms:partition=oneway@0,dup=0.15;" +
			"1s:partition=full@1;1.8s:drop=0.1;2.6s:pass")
	if err != nil {
		t.Fatal(err)
	}
	proxy := fleetnet.NewChaosProxy(20260808, tl, nil)
	proxyURL, err := proxy.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	dir := t.TempDir()
	opts := fleetOpts(dir, ranges)
	opts.Listen = "127.0.0.1:0"
	opts.Advertise = proxyURL // workers join through the proxy
	opts.OnListen = func(bound string) {
		if err := proxy.SetBackend(bound); err != nil {
			t.Errorf("proxy backend: %v", err)
		}
	}
	res, err := RunFleet(context.Background(), opts)
	if err != nil {
		t.Fatalf("partitioned fleet run: %v", err)
	}

	merged, err := os.ReadFile(res.MergedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if string(merged) != refBytes {
		t.Fatalf("partitioned merge diverges from reference: %d vs %d rows",
			len(strings.Fields(string(merged))), len(ref))
	}

	// The >TTL partition of shard 1 must have forced at least one
	// reclaim, and every reclaim and rate reallocation must carry its
	// cause.
	if res.Reclaims < 1 {
		t.Fatalf("no reclaims despite an over-TTL partition (got %d)", res.Reclaims)
	}
	entries := readFleetJournal(t, filepath.Join(dir, "fleet-trace.jsonl"))
	if countJournal(entries, trace.JFleetNetListen) != 1 {
		t.Fatal("no listen record in the decision journal")
	}
	reclaims, respawns := 0, 0
	for _, e := range entries {
		switch e.Kind {
		case trace.JFleetReclaim:
			reclaims++
			if e.Reason == "" {
				t.Errorf("unattributed reclaim: %+v", e)
			}
		case trace.JFleetRespawn:
			respawns++
		case trace.JFleetRateRealloc:
			if e.Reason == "" {
				t.Errorf("unattributed rate reallocation: %+v", e)
			}
		case trace.JFleetNetFence:
			if e.Reason == "" {
				t.Errorf("unattributed fence verdict: %+v", e)
			}
		}
	}
	if reclaims < 1 || respawns < 1 {
		t.Fatalf("journal shows %d reclaims / %d respawns, want >=1 each", reclaims, respawns)
	}

	// The proxy really did what the timeline scripted.
	stats := proxy.Stats()
	if stats.Dropped == 0 || stats.Duplicated == 0 || stats.Partitioned == 0 || stats.OneWay == 0 {
		t.Fatalf("chaos proxy fired no faults of some kind: %+v", stats)
	}
	t.Logf("reclaims=%d dups=%d proxy=%+v rows=%d",
		res.Reclaims, res.Merge.Duplicates, stats, res.Merge.UniqueRows)
}
