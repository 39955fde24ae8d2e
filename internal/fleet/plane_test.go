package fleet

import (
	"bytes"
	"log/slog"
	"os"
	"strconv"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/metrics"
	"zmapgo/internal/trace"
)

// TestFSCommitBestEffortDoneMark: the metadata file is the one commit
// record; the lease done-mark is an optimization. A worker whose
// done-mark cannot be written must still commit successfully — the
// coordinator's rerun adoption (already_done) keys off the metadata
// file, never the lease state.
func TestFSCommitBestEffortDoneMark(t *testing.T) {
	dir := t.TempDir()
	paths := PathsFor(dir, 0, 1, "text")
	if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := &WorkerSpec{FleetID: "t", Shard: 0, Shards: 1, Epoch: 1, Paths: paths}
	plane := NewFSWorkerPlane(spec, slog.New(slog.DiscardHandler))

	// Fault injection: the lease location is unusable (here: occupied by
	// a directory, so both the read-back and the atomic save fail). The
	// commit must tolerate it.
	if err := os.Mkdir(paths.Lease, 0o755); err != nil {
		t.Fatal(err)
	}
	meta := []byte(`{"ok":true}`)
	if err := plane.Commit(meta); err != nil {
		t.Fatalf("Commit failed on a lost done-mark: %v", err)
	}
	got, err := os.ReadFile(paths.Metadata)
	if err != nil {
		t.Fatalf("commit record missing: %v", err)
	}
	if !bytes.Equal(got, meta) {
		t.Fatalf("metadata %q", got)
	}
}

// TestFSCommitSkipsForeignEpochDoneMark: a commit landing after the
// shard was re-granted must not flip the successor's lease terminal.
func TestFSCommitSkipsForeignEpochDoneMark(t *testing.T) {
	dir := t.TempDir()
	paths := PathsFor(dir, 0, 1, "text")
	if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	lease := &checkpoint.Lease{
		FleetID: "t", ShardIndex: 0, Epoch: 2, WorkerID: "shard-0.epoch-2",
		State: checkpoint.LeaseRunning, GrantedAt: now, RenewedAt: now, TTLSecs: 5,
	}
	if err := checkpoint.SaveLease(paths.Lease, lease); err != nil {
		t.Fatal(err)
	}
	spec := &WorkerSpec{FleetID: "t", Shard: 0, Shards: 1, Epoch: 1, Paths: paths}
	if err := NewFSWorkerPlane(spec, nil).Commit([]byte("{}")); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	l, err := checkpoint.LoadLease(paths.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if l.State != checkpoint.LeaseRunning || l.Epoch != 2 {
		t.Fatalf("epoch-1 commit rewrote epoch-2 lease: %+v", l)
	}
}

// TestReallocateJournalsLostRateWrite is the regression test for the
// silently-lost rate budget: when a shard's rate-file write fails past
// the bounded retry, the loss must surface as a first-class journal
// decision (fleet_rate_write_failed) instead of vanishing into a debug
// log — and the surviving shards' writes must still land.
func TestReallocateJournalsLostRateWrite(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	c := &coordinator{
		cfg:   Config{Workers: 2, Dir: dir, RateBudget: 1000, Format: "text"},
		log:   slog.New(slog.DiscardHandler),
		jr:    trace.New(trace.Config{Shards: 1, SampleEvery: -1}),
		alive: []bool{true, true},
	}
	for i := 0; i < 2; i++ {
		c.rateAlloc = append(c.rateAlloc, reg.GaugeWith("zmapgo_fleet_rate_allocation_pps",
			"test", "shard", strconv.Itoa(i)))
	}
	// Shard 0's directory exists; shard 1's does not, so every write
	// attempt for it fails (the injected fault).
	if err := os.MkdirAll(ShardDir(dir, 0), 0o755); err != nil {
		t.Fatal(err)
	}

	c.mu.Lock()
	share, alive := c.reallocateLocked("worker_lost")
	c.mu.Unlock()
	if share != 500 || alive != 2 {
		t.Fatalf("share=%v alive=%d, want 500/2", share, alive)
	}
	if got := ReadRateFile(PathsFor(dir, 0, 1, "text").Rate); got != 500 {
		t.Fatalf("surviving shard's rate file holds %v, want 500", got)
	}

	var lost []trace.JEntry
	for _, e := range c.jr.Snapshot().Journal {
		if e.Kind == trace.JFleetRateLost {
			lost = append(lost, e)
		}
	}
	if len(lost) != 1 {
		t.Fatalf("lost rate write journaled %d times, want exactly 1 (shard 1)", len(lost))
	}
	if lost[0].Index != 1 || lost[0].Reason != "worker_lost" || lost[0].RatePPS != 500 {
		t.Fatalf("lost-rate entry misattributed: %+v", lost[0])
	}
}

// TestWriteRateFileRetryRecovers: the bounded retry itself — a write
// that starts failing and then heals (directory appears, as when a
// shard dir is created concurrently) succeeds without journaling.
func TestWriteRateFileRetryRecovers(t *testing.T) {
	dir := t.TempDir()
	path := PathsFor(dir, 3, 1, "text").Rate
	done := make(chan error, 1)
	go func() { done <- writeRateFileRetry(path, 750) }()
	// Create the shard directory while the retry loop is backing off.
	time.Sleep(3 * time.Millisecond)
	if err := os.MkdirAll(ShardDir(dir, 3), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if got := ReadRateFile(path); got != 750 {
		t.Fatalf("rate file holds %v, want 750", got)
	}
}
