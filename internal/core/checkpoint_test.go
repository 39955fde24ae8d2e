package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/dedup"
	"zmapgo/internal/netsim"
	"zmapgo/internal/output"
	"zmapgo/internal/target"
)

func mustPorts(t *testing.T, spec string) *target.PortSet {
	t.Helper()
	ps, err := target.ParsePorts(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestGracefulStopFinishesCleanly(t *testing.T) {
	in, cfg, _ := testbed(t, 130, "80")
	cfg.Rate = 20000 // ~0.8s of sending: Stop lands mid-scan
	cfg.Cooldown = 100 * time.Millisecond
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "scan.ckpt")
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var meta *output.Metadata
	go func() {
		defer close(done)
		m, err := s.Run(context.Background())
		if err != nil {
			t.Errorf("graceful stop must not error: %v", err)
		}
		meta = m
	}()
	time.Sleep(150 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
	if meta == nil {
		t.Fatal("no metadata")
	}
	if !meta.Interrupted {
		t.Error("metadata must record the interrupt")
	}
	if meta.PacketsSent == 0 || meta.PacketsSent >= 16384 {
		t.Errorf("stop landed outside the scan: sent %d", meta.PacketsSent)
	}
	// The full lifecycle still ran: cooldown, drain, done.
	phases := map[string]bool{}
	for _, p := range meta.Phases {
		phases[p.Phase] = true
	}
	for _, want := range []string{"send", "cooldown", "drain", "done"} {
		if !phases[want] {
			t.Errorf("phase %q missing after graceful stop: %v", want, meta.Phases)
		}
	}
	// The final checkpoint exists and is marked interrupted.
	snap, err := checkpoint.Load(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if snap.Phase != "interrupted" {
		t.Errorf("final checkpoint phase %q, want interrupted", snap.Phase)
	}
}

func TestCheckpointResumeExactlyOnce(t *testing.T) {
	// The sparse input is 1025 addresses: the 65537 group walks 64
	// elements per target, so the interrupt and the resume point fall
	// among runs of skipped elements.
	cases := []struct {
		name     string
		prefixes []int // consecutive blocks from 10.0.0.0
		rate     float64
	}{
		{"dense", []int{18}, 20000},
		{"sparse", []int{22, 32}, 2000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testCheckpointResumeExactlyOnce(t, tc.prefixes, tc.rate)
		})
	}
}

func testCheckpointResumeExactlyOnce(t *testing.T, prefixes []int, rate float64) {
	base, addrs := uint32(0x0A000000), uint32(0)
	cons := target.NewConstraint(false)
	for _, bits := range prefixes {
		cons.Allow(base+addrs, bits)
		addrs += 1 << (32 - bits)
	}
	bed := func() (*netsim.Internet, Config, *collectWriter) {
		in, cfg, sink := testbed(t, 131, "80")
		cfg.Constraint = cons
		return in, cfg, sink
	}

	// Run 1: graceful interrupt mid-scan, final checkpoint is exact.
	ckpt := filepath.Join(t.TempDir(), "scan.ckpt")
	in, cfg, sink1 := bed()
	cfg.Rate = rate
	cfg.Cooldown = 150 * time.Millisecond
	cfg.CheckpointPath = ckpt
	link1 := netsim.NewLink(in, 1<<16, 0)
	s1, err := New(cfg, link1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.Space().Targets(); got != uint64(addrs) {
		t.Fatalf("space holds %d targets, want %d", got, addrs)
	}
	done := make(chan *output.Metadata, 1)
	go func() {
		m, err := s1.Run(context.Background())
		if err != nil {
			t.Errorf("run 1: %v", err)
		}
		done <- m
	}()
	time.Sleep(150 * time.Millisecond)
	s1.Stop()
	meta1 := <-done
	link1.Close()
	if meta1.PacketsSent == 0 || meta1.PacketsSent >= uint64(addrs) {
		t.Fatalf("interrupt landed outside the scan: sent %d", meta1.PacketsSent)
	}

	snap, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// Run 2: resume with Seed zero — it must be adopted from the
	// checkpoint — against an identically-populated fresh sim.
	in2, cfg2, sink2 := bed()
	cfg2.Seed = 0
	cfg2.Resume = snap
	cfg2.CheckpointPath = ckpt
	link2 := netsim.NewLink(in2, 1<<16, 0)
	defer link2.Close()
	s2, err := New(cfg2, link2)
	if err != nil {
		t.Fatal(err)
	}
	meta2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if total := meta1.PacketsSent + meta2.PacketsSent; total != uint64(addrs) {
		t.Errorf("runs sent %d+%d = %d probes, want exactly %d",
			meta1.PacketsSent, meta2.PacketsSent, total, addrs)
	}
	seen := map[string]int{}
	for _, r := range append(sink1.all(), sink2.all()...) {
		if r.Success && !r.Repeat {
			seen[r.Saddr()]++
		}
	}
	for addr, n := range seen {
		if n != 1 {
			t.Errorf("%s reported as new success %d times across the runs", addr, n)
		}
	}
	want := expectedHitsIn(in, addrs, []uint16{80}, cfg.OptionLayout)
	if len(seen) != want {
		t.Errorf("union found %d services, ground truth %d", len(seen), want)
	}

	// Cross-run accounting.
	if meta1.Runs != 1 || !meta1.Interrupted {
		t.Errorf("run 1 accounting: runs=%d interrupted=%v", meta1.Runs, meta1.Interrupted)
	}
	if meta2.Runs != 2 || meta2.Interrupted {
		t.Errorf("run 2 accounting: runs=%d interrupted=%v", meta2.Runs, meta2.Interrupted)
	}
	if meta2.CumulativeSecs <= meta2.Duration {
		t.Errorf("cumulative %.3fs must exceed run-2 duration %.3fs",
			meta2.CumulativeSecs, meta2.Duration)
	}
	if meta2.Seed != meta1.Seed {
		t.Errorf("adopted seed %d != original %d", meta2.Seed, meta1.Seed)
	}

	// The resumed run's final checkpoint is complete.
	final, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if final.Phase != "done" || final.Runs != 2 {
		t.Errorf("final checkpoint phase=%q runs=%d", final.Phase, final.Runs)
	}
}

func TestCheckpointFingerprintMismatchIsHardError(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "scan.ckpt")
	in, cfg, _ := testbed(t, 132, "80")
	cfg.MaxTargets = 500
	cfg.CheckpointPath = ckpt
	link := netsim.NewLink(in, 1<<16, 0)
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	link.Close()
	snap, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"ports", func(c *Config) { c.Ports = mustPorts(t, "443") }},
		{"seed", func(c *Config) { c.Seed++ }},
		{"threads", func(c *Config) { c.Threads++ }},
		{"shards", func(c *Config) { c.Shards = 2 }},
		{"targets", func(c *Config) {
			cons := *c.Constraint
			c.Constraint = &cons
			c.Constraint.Deny(0x0A000000, 24)
		}},
	}
	for _, tc := range cases {
		in2, cfg2, _ := testbed(t, 132, "80")
		_ = in2
		cfg2.Resume = snap
		tc.mutate(&cfg2)
		link2 := netsim.NewLink(in2, 16, 0)
		_, err := New(cfg2, link2)
		link2.Close()
		if !errors.Is(err, checkpoint.ErrFingerprintMismatch) {
			t.Errorf("%s mismatch: New = %v, want ErrFingerprintMismatch", tc.name, err)
		}
	}

	// And an unmutated config resumes fine.
	in3, cfg3, _ := testbed(t, 132, "80")
	_ = in3
	cfg3.Resume = snap
	cfg3.MaxTargets = cfg.MaxTargets
	link3 := netsim.NewLink(in3, 16, 0)
	defer link3.Close()
	if _, err := New(cfg3, link3); err != nil {
		t.Errorf("identical config rejected: %v", err)
	}
}

func TestCrashResumeFromPeriodicSnapshotSkipsNothing(t *testing.T) {
	// A crash leaves only the last periodic snapshot, whose progress is
	// rounded down for still-running threads. Resuming from it must walk
	// the permutation to the very end — re-probing a little is allowed
	// (at-least-once), skipping anything is not.
	ckpt := filepath.Join(t.TempDir(), "scan.ckpt")
	in, cfg, _ := testbed(t, 133, "80")
	cfg.Rate = 15000
	cfg.CheckpointPath = ckpt
	cfg.CheckpointInterval = 20 * time.Millisecond
	link := netsim.NewLink(in, 1<<16, 0)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_, _ = s.Run(ctx) // hard-aborted; error/metadata irrelevant
	}()
	// Wait for a periodic snapshot to land, then "crash".
	var snap *checkpoint.Snapshot
	deadline := time.Now().Add(5 * time.Second)
	for snap == nil {
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
		if loaded, err := checkpoint.Load(ckpt); err == nil && loaded.Phase == "send" {
			snap = loaded
		}
	}
	cancel()
	<-runDone
	link.Close()

	// Reference: a clean full run with the same fingerprint.
	inRef, cfgRef, _ := testbed(t, 133, "80")
	_ = inRef
	linkRef := netsim.NewLink(inRef, 1<<16, 0)
	defer linkRef.Close()
	sRef, err := New(cfgRef, linkRef)
	if err != nil {
		t.Fatal(err)
	}
	metaRef, err := sRef.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Resume from the stale snapshot: cumulative per-thread progress must
	// reach exactly the reference's (the full assignment), proving no
	// element was skipped.
	in2, cfg2, _ := testbed(t, 133, "80")
	_ = in2
	cfg2.Resume = snap
	link2 := netsim.NewLink(in2, 1<<16, 0)
	defer link2.Close()
	s2, err := New(cfg2, link2)
	if err != nil {
		t.Fatal(err)
	}
	meta2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Runs != snap.Runs+1 {
		t.Errorf("runs = %d, want %d", meta2.Runs, snap.Runs+1)
	}
	if len(meta2.ThreadProgress) != len(metaRef.ThreadProgress) {
		t.Fatalf("thread counts differ: %v vs %v", meta2.ThreadProgress, metaRef.ThreadProgress)
	}
	for i := range meta2.ThreadProgress {
		if meta2.ThreadProgress[i] != metaRef.ThreadProgress[i] {
			t.Errorf("thread %d progress %d, reference %d — resume skipped or overran",
				i, meta2.ThreadProgress[i], metaRef.ThreadProgress[i])
		}
	}
	// The conservative rounding re-probes at most one element per thread
	// beyond what the snapshot recorded.
	for i, p := range snap.Progress {
		if p > meta2.ThreadProgress[i] {
			t.Errorf("thread %d snapshot progress %d exceeds total %d", i, p, meta2.ThreadProgress[i])
		}
	}
}

func TestFinalCheckpointCarriesDedupWindow(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "scan.ckpt")
	in, cfg, sink := testbed(t, 134, "80")
	cfg.MaxTargets = 3000
	cfg.CheckpointPath = ckpt
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dedup == nil {
		t.Fatal("final checkpoint carries no dedup state")
	}
	keys, err := checkpoint.DecodeKeys(snap.Dedup.Keys)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, r := range sink.all() {
		if !r.Repeat {
			valid++
		}
	}
	if len(keys) != valid {
		t.Errorf("window carries %d keys, scan saw %d distinct responses", len(keys), valid)
	}
	// Restoring the keys reproduces membership: every key is a repeat.
	w := dedup.NewWindow(snap.Dedup.Size)
	w.Restore(keys)
	for _, k := range keys {
		if !w.Seen(uint32(k>>16), uint16(k&0xFFFF)) {
			t.Fatalf("restored window missing key %x", k)
		}
	}
}
