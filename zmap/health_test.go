package zmap

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"zmapgo/internal/health"
)

// healthScan runs one scan against a dedicated simulated Internet with
// the given seed, optionally installing a congestion model on the link.
func healthScan(t *testing.T, simSeed uint64, cong *CongestionOptions, opts Options) (*Summary, *Link) {
	t.Helper()
	in := NewInternet(SimOptions{Seed: simSeed, Lossless: true, DisableBlowback: true})
	link := in.NewLink(1<<16, 0)
	t.Cleanup(link.Close)
	if cong != nil {
		link.WithCongestion(*cong)
	}
	if opts.Cooldown == 0 {
		opts.Cooldown = 100 * time.Millisecond
	}
	s, err := opts.Compile(link)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertBooksBalance(t, sum, s.Metrics(), nil)
	return sum, link
}

// TestAdaptiveRateRecoversThroughCongestionKnee is the closed-loop
// acceptance scenario: a path with a 20 kpps capacity knee under a scan
// configured for 60 kpps. The fixed-rate engine blasts through the knee
// and loses most of its responses; the health-controlled engine sees the
// ICMP backpressure, backs off below the knee, and recovers nearly all
// of the achievable hit rate.
func TestAdaptiveRateRecoversThroughCongestionKnee(t *testing.T) {
	base := Options{
		Ranges:  []string{"10.0.0.0/16"},
		Ports:   "80",
		Seed:    42,
		Threads: 4,
	}

	// Reference: same population, no knee, no rate cap — the achievable
	// response set.
	ref, _ := healthScan(t, 900, nil, base)
	if ref.UniqueSucc < 200 {
		t.Fatalf("reference scan found only %d responsive hosts; population too sparse to judge", ref.UniqueSucc)
	}

	knee := &CongestionOptions{CapacityPPS: 20_000, ICMPPPS: 2_000}

	fixed := base
	fixed.Rate = 60_000
	fixedSum, _ := healthScan(t, 900, knee, fixed)
	if fixedSum.PacketsSent != ref.PacketsSent {
		t.Fatalf("fixed run sent %d probes, reference sent %d", fixedSum.PacketsSent, ref.PacketsSent)
	}
	if limit := ref.UniqueSucc * 70 / 100; fixedSum.UniqueSucc > limit {
		t.Errorf("fixed-rate scan through the knee kept %d/%d responses; want <= %d (>=30%% loss)",
			fixedSum.UniqueSucc, ref.UniqueSucc, limit)
	}

	adaptive := fixed
	adaptive.AdaptiveRate = true
	adaptive.QuarantineThreshold = -1 // isolate the AIMD loop from quarantine
	adaptive.HealthInterval = 25 * time.Millisecond
	adaptSum, _ := healthScan(t, 900, knee, adaptive)
	if floor := ref.UniqueSucc * 95 / 100; adaptSum.UniqueSucc < floor {
		t.Errorf("adaptive scan recovered %d/%d responses; want >= %d (95%%)",
			adaptSum.UniqueSucc, ref.UniqueSucc, floor)
	}
	if adaptSum.RateDecreases == 0 {
		t.Error("adaptive scan never decreased its rate through a 20kpps knee")
	}
	if !adaptSum.AdaptiveRate {
		t.Error("summary does not record the adaptive-rate controller")
	}
	if adaptSum.FinalRatePPS <= 0 || adaptSum.FinalRatePPS > 60_000 {
		t.Errorf("controller final rate %.0f outside (0, 60000]", adaptSum.FinalRatePPS)
	}
	if adaptSum.UnreachObserved == 0 {
		t.Error("adaptive scan observed no ICMP unreachables despite the knee")
	}
}

// TestDarkSubnetQuarantined is the interference scenario: one of two
// scanned /16s stops responding mid-scan (the operator fingerprinted the
// scan and null-routed it). The health layer must quarantine exactly
// that prefix, stop probing it, and report the event in the metadata.
func TestDarkSubnetQuarantined(t *testing.T) {
	cong := &CongestionOptions{
		DarkPrefix: 0x0A010000, // 10.1.0.0/16
		DarkAfter:  50_000,
	}
	sum, link := healthScan(t, 901, cong, Options{
		Ranges:              []string{"10.0.0.0/15"},
		Ports:               "80",
		Seed:                77,
		Threads:             4,
		Rate:                150_000,
		QuarantineThreshold: 0.15,
		HealthInterval:      20 * time.Millisecond,
	})
	if sum.UniqueSucc < 100 {
		t.Fatalf("only %d responsive hosts; population too sparse to judge", sum.UniqueSucc)
	}
	_, _, darkDropped := link.CongestionStats()
	if darkDropped == 0 {
		t.Fatal("dark-prefix fault never fired")
	}
	if len(sum.QuarantinedPrefixes) != 1 {
		t.Fatalf("quarantined %v, want exactly [10.1.0.0/16]", sum.QuarantinedPrefixes)
	}
	q := sum.QuarantinedPrefixes[0]
	if q.Prefix != "10.1.0.0/16" {
		t.Fatalf("quarantined %q, want 10.1.0.0/16", q.Prefix)
	}
	if q.Sent == 0 || q.Recv == 0 {
		t.Errorf("quarantine record %+v lacks the evidence counters", q)
	}
	if sum.QuarantineSkipped == 0 {
		t.Error("no probes were skipped after quarantine")
	}
	// The skipped probes never hit the wire.
	if sum.PacketsSent+sum.QuarantineSkipped != 1<<17 {
		t.Errorf("sent %d + skipped %d != %d targets",
			sum.PacketsSent, sum.QuarantineSkipped, 1<<17)
	}
}

// TestQuarantineSurvivesResume kills the dark-subnet scan partway
// through (bounded by MaxTargets, ending with an exact final
// checkpoint), then resumes it: the quarantine must carry over through
// the snapshot so the resumed run never re-probes the dark prefix.
func TestQuarantineSurvivesResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "scan.ckpt")
	base := Options{
		Ranges:              []string{"10.0.0.0/15"},
		Ports:               "80",
		Seed:                77,
		Threads:             4,
		Rate:                150_000,
		QuarantineThreshold: 0.15,
		HealthInterval:      20 * time.Millisecond,
		CheckpointPath:      ckpt,
		// Parole (on by default) would legitimately re-probe the dark
		// prefix on a budget; weather_test.go covers that. This test pins
		// the opt-out contract: with parole disabled, a quarantined
		// prefix is never probed again, in-run or after resume.
		Health: &health.Config{ParoleAfter: -time.Second},
	}

	run1 := base
	run1.MaxTargets = 100_000
	sum1, _ := healthScan(t, 901, &CongestionOptions{
		DarkPrefix: 0x0A010000,
		DarkAfter:  50_000,
	}, run1)
	if len(sum1.QuarantinedPrefixes) != 1 || sum1.QuarantinedPrefixes[0].Prefix != "10.1.0.0/16" {
		t.Fatalf("run 1 quarantined %v, want [10.1.0.0/16]", sum1.QuarantinedPrefixes)
	}

	snap, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Health == nil {
		t.Fatal("final checkpoint carries no health state")
	}
	if len(snap.Health.Quarantined) != 1 || snap.Health.Quarantined[0].Prefix != "10.1.0.0/16" {
		t.Fatalf("checkpoint quarantine log %v, want [10.1.0.0/16]", snap.Health.Quarantined)
	}

	// Resume against a link where the subnet is dark from the first
	// probe; the quarantine means the engine never probes it anyway.
	run2 := base
	sum2, link2 := healthScan(t, 901, &CongestionOptions{
		DarkPrefix: 0x0A010000,
		DarkAfter:  1,
	}, func() Options { run2.Resume = snap; return run2 }())
	if len(sum2.QuarantinedPrefixes) != 1 || sum2.QuarantinedPrefixes[0].Prefix != "10.1.0.0/16" {
		t.Fatalf("resumed run quarantined %v, want restored [10.1.0.0/16]", sum2.QuarantinedPrefixes)
	}
	if sum2.QuarantineSkipped == 0 {
		t.Error("resumed run skipped no probes in the quarantined prefix")
	}
	if _, _, dark := link2.CongestionStats(); dark > 0 {
		t.Errorf("resumed run sent %d probes into the quarantined dark prefix", dark)
	}
	// Across both runs every target was either probed or skipped.
	total := sum1.PacketsSent + sum1.QuarantineSkipped + sum2.PacketsSent + sum2.QuarantineSkipped
	if total != 1<<17 {
		t.Errorf("probed+skipped across runs = %d, want %d", total, 1<<17)
	}
}

// TestControllerRateRestoredFromCheckpoint proves the learned rate rides
// the snapshot: a resumed adaptive scan starts from the checkpointed
// rate, not the configured ceiling.
func TestControllerRateRestoredFromCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "tiny.ckpt")
	base := Options{
		Ranges:         []string{"10.0.0.0/28"},
		Ports:          "80",
		Seed:           5,
		Cooldown:       5 * time.Millisecond,
		CheckpointPath: ckpt,
	}
	healthScan(t, 902, nil, base)

	snap, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a previous run that had learned a much lower safe rate.
	snap.Health = &health.State{RatePPS: 1000}

	run2 := base
	run2.Resume = snap
	run2.AdaptiveRate = true
	run2.Rate = 5000
	sum, _ := healthScan(t, 902, nil, run2)
	if !sum.AdaptiveRate {
		t.Fatal("resumed scan did not enable the controller")
	}
	// The scan is already complete, so nothing nudges the rate: the
	// final rate is the restored one, not the 5000 pps ceiling.
	if sum.FinalRatePPS != 1000 {
		t.Errorf("resumed controller rate %.0f, want restored 1000", sum.FinalRatePPS)
	}
}
