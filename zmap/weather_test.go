package zmap

import (
	"path/filepath"
	"testing"
	"time"

	"zmapgo/internal/health"
)

// weatherScan runs one scan with a JSON weather scenario installed on
// the simulated link.
func weatherScan(t *testing.T, simSeed uint64, profile string, opts Options) (*Summary, *Link) {
	t.Helper()
	in := NewInternet(SimOptions{Seed: simSeed, Lossless: true, DisableBlowback: true})
	link := in.NewLink(1<<16, 0)
	t.Cleanup(link.Close)
	if profile != "" {
		sc, err := ParseScenario([]byte(profile))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := link.WithScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
	if opts.Cooldown == 0 {
		opts.Cooldown = 100 * time.Millisecond
	}
	s, err := opts.Compile(link)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	assertBooksBalance(t, sum, s.Metrics(), nil)
	return sum, link
}

// burstyProfile is Gilbert-Elliott weather with no congestion at all:
// total loss bursts a bit shorter than one hit-rate evidence window
// (~8000 probes at this population's ~0.6% hit rate), separated by
// multi-window healthy stretches. Nothing about the path justifies
// slowing down — the link's capacity is untouched.
const burstyProfile = `{
  "name": "bursty-loss",
  "seed": 11,
  "events": [
    {"type": "bursty_loss", "at_secs": 0,
     "p_good_bad": 0.00005, "p_bad_good": 0.00014,
     "loss_good": 0, "loss_bad": 1.0}
  ]
}`

// TestBurstyLossDoesNotCollapseAdaptiveRate is the tentpole weather
// acceptance: under Gilbert-Elliott bursty loss with zero congestion,
// the hardened controller (collapse evidence must persist across
// consecutive windows) holds the configured rate, while the legacy
// hair-trigger (CollapseWindows: 1) is fooled into cutting it.
// TestCollapsePersistenceBeatsBurstyLoss pins the same contrast with
// scripted windows and exact rate arithmetic; this replays it through
// the live engine.
func TestBurstyLossDoesNotCollapseAdaptiveRate(t *testing.T) {
	base := Options{
		Ranges:              []string{"10.0.0.0/16"},
		Ports:               "80",
		Seed:                42,
		Threads:             1, // one sender keeps the GE ordinal order exact
		Rate:                60_000,
		AdaptiveRate:        true,
		QuarantineThreshold: -1,
		// A short tick keeps evidence windows aligned to probe ordinals
		// (a window rolls at the first tick past the expected-response
		// floor, so overshoot is bounded by one tick of probes): burst/
		// window alignment then barely moves with achieved pps, and the
		// test judges the controller, not the host's scheduling.
		HealthInterval: 5 * time.Millisecond,
		// 80 expected responses ≈ a 6600-probe window at this population's
		// ~1.2% hit rate — strictly longer than the scenario's 4532-probe
		// burst, so no alignment can put >50% loss into two consecutive
		// windows: the hardened verdict is geometric, not seed luck.
		Health: &health.Config{MinWindowResponses: 80},
	}

	ref, _ := weatherScan(t, 910, "", base)
	if ref.UniqueSucc < 200 {
		t.Fatalf("reference found only %d responsive hosts", ref.UniqueSucc)
	}

	sum, link := weatherScan(t, 910, burstyProfile, base)
	ws := link.WeatherStatsSnapshot()
	if ws.BurstyDropped < 1000 {
		t.Fatalf("bursty weather dropped only %d probes; scenario too gentle to judge", ws.BurstyDropped)
	}
	t.Logf("bursty: dropped=%d ref=%d got=%d legacy follows", ws.BurstyDropped, ref.UniqueSucc, sum.UniqueSucc)
	if sum.RateDecreases != 0 {
		t.Errorf("hardened controller cut the rate %d times on pure loss bursts", sum.RateDecreases)
	}
	if sum.FinalRatePPS != 60_000 {
		t.Errorf("final rate %.0f, want the full configured 60000", sum.FinalRatePPS)
	}
	// The bursts cost their own responses (those probes died on the
	// wire), but nothing compounding: the scan keeps most of the
	// reference population.
	if floor := ref.UniqueSucc * 60 / 100; sum.UniqueSucc < floor {
		t.Errorf("bursty scan kept %d/%d responses, want >= %d", sum.UniqueSucc, ref.UniqueSucc, floor)
	}

	// Failing-first contrast: a single-window trigger is fooled into at
	// least one cut by the same weather. The trigger ratio is sensitized
	// (0.8 vs the 0.5 default) so the burst's worst half — at least 2266
	// dark probes in one window — clears the cut threshold at every
	// possible burst/window alignment; the exact same-knobs 80%-vs-50%
	// contrast is pinned deterministically in
	// TestCollapsePersistenceBeatsBurstyLoss. (Additive recovery may claw
	// the rate back by scan end, so the cut count — not the final rate —
	// is the signal.)
	legacy := base
	legacy.Health = &health.Config{
		MinWindowResponses: 80,
		CollapseWindows:    1,
		CollapseRatio:      0.8,
	}
	legacySum, _ := weatherScan(t, 910, burstyProfile, legacy)
	if legacySum.RateDecreases == 0 {
		t.Error("single-window hair-trigger was not fooled; the contrast is vacuous")
	}
}

// blackoutProfile takes 10.1.0.0/16 dark after the prefix has proven
// responsive, then lets it recover — a transient null-route, not a
// permanent one. The event times leave headroom for a race-detector
// slowdown: even at a fraction of the configured rate the prefix
// collects its baseline before the lights go out.
const blackoutProfile = `{
  "name": "blackout-recovery",
  "seed": 7,
  "events": [
    {"type": "blackout", "at_secs": 0.5, "duration_secs": 1.5, "prefix": "10.1.0.0/16"}
  ]
}`

// paroleOptions: quarantine fast, parole fast, on wall-clock scales the
// test can afford. The rate is modest so the achieved pace stays close
// to it even under -race.
func paroleOptions() Options {
	return Options{
		Ranges:              []string{"10.0.0.0/15"},
		Ports:               "80",
		Seed:                77,
		Threads:             4,
		Rate:                30_000,
		QuarantineThreshold: 0.15,
		HealthInterval:      20 * time.Millisecond,
		Health: &health.Config{
			ParoleAfter:    250 * time.Millisecond,
			ParoleInterval: 150 * time.Millisecond,
		},
	}
}

// TestBlackoutQuarantineParoleRelease is the transient-blackout
// acceptance: the darkened /16 is quarantined mid-scan, re-probed on the
// parole budget after it recovers, released, and the full trail lands in
// the metadata.
func TestBlackoutQuarantineParoleRelease(t *testing.T) {
	sum, link := weatherScan(t, 901, blackoutProfile, paroleOptions())
	if ws := link.WeatherStatsSnapshot(); ws.BlackoutDropped == 0 {
		t.Fatal("blackout never dropped a probe")
	}
	if len(sum.QuarantinedPrefixes) != 1 {
		t.Fatalf("quarantined %v, want exactly [10.1.0.0/16]", sum.QuarantinedPrefixes)
	}
	q := sum.QuarantinedPrefixes[0]
	if q.Prefix != "10.1.0.0/16" {
		t.Fatalf("quarantined %q, want 10.1.0.0/16", q.Prefix)
	}
	if !q.Released {
		t.Fatalf("recovered prefix never released: %+v", q)
	}
	if q.ParoleAttempts == 0 || q.ParoleRecv == 0 || q.ReleasedAtSecs <= q.AtSecs {
		t.Errorf("parole trail incomplete: %+v", q)
	}
	if sum.ParoleGrants == 0 || sum.ParoleReleases != 1 || sum.ParoleProbes == 0 {
		t.Errorf("parole accounting: grants=%d releases=%d probes=%d",
			sum.ParoleGrants, sum.ParoleReleases, sum.ParoleProbes)
	}
	// Release means the prefix rejoins the scan: every target was either
	// probed (incl. parole probes) or skipped while quarantined.
	if sum.PacketsSent+sum.QuarantineSkipped != 1<<17 {
		t.Errorf("sent %d + skipped %d != %d targets",
			sum.PacketsSent, sum.QuarantineSkipped, 1<<17)
	}
	if sum.QuarantineSkipped == 0 {
		t.Error("no probes skipped during the quarantine window")
	}
}

// TestParoleSurvivesKillAndResume: the scan dies (bounded by
// MaxTargets + final checkpoint) while the prefix is quarantined and
// unreleased; the resumed run — against a healed network — paroles and
// releases it using the checkpointed base rate.
func TestParoleSurvivesKillAndResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "weather.ckpt")
	base := paroleOptions()
	base.CheckpointPath = ckpt

	// Run 1: blackout outlives the (truncated) run, so the prefix stays
	// quarantined and unreleased at the final checkpoint.
	run1 := base
	run1.MaxTargets = 45_000
	perma := `{
	  "name": "perma-blackout", "seed": 7,
	  "events": [{"type": "blackout", "at_secs": 0.5, "duration_secs": 60, "prefix": "10.1.0.0/16"}]
	}`
	sum1, _ := weatherScan(t, 901, perma, run1)
	if len(sum1.QuarantinedPrefixes) != 1 || sum1.QuarantinedPrefixes[0].Released {
		t.Fatalf("run 1 quarantine state %v, want one unreleased prefix", sum1.QuarantinedPrefixes)
	}

	snap, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Health == nil || len(snap.Health.Quarantined) != 1 {
		t.Fatalf("checkpoint health state %+v, want one quarantine record", snap.Health)
	}
	if snap.Health.Quarantined[0].BaseRate <= 0 {
		t.Fatalf("checkpoint lost the parole yardstick: %+v", snap.Health.Quarantined[0])
	}

	// Run 2: the network healed. The restored quarantine must parole the
	// prefix, see it answer, and release it. Slower than run 1 so the
	// restored parole timer fires while quarantined targets are still
	// ahead in the permutation stream (skips consume no rate budget).
	run2 := base
	run2.Rate = 20_000
	run2.Resume = snap
	sum2, _ := weatherScan(t, 901, "", run2)
	if len(sum2.QuarantinedPrefixes) != 1 {
		t.Fatalf("resumed run records %v, want the restored prefix", sum2.QuarantinedPrefixes)
	}
	q := sum2.QuarantinedPrefixes[0]
	if !q.Released {
		t.Fatalf("healed prefix never released after resume: %+v", q)
	}
	if sum2.ParoleReleases != 1 || sum2.ParoleProbes == 0 {
		t.Errorf("resumed parole accounting: releases=%d probes=%d",
			sum2.ParoleReleases, sum2.ParoleProbes)
	}
	// Conservation across the kill: every target probed or skipped once.
	total := sum1.PacketsSent + sum1.QuarantineSkipped + sum2.PacketsSent + sum2.QuarantineSkipped
	if total != 1<<17 {
		t.Errorf("probed+skipped across runs = %d, want %d", total, 1<<17)
	}
}

// stormProfile floods the scanner with ICMP unreachables that quote our
// real probes (an on-path adversary or a buggy middlebox): they pass
// validation, so only the controller's hold clamp stands between the
// storm and the rate floor.
const stormProfile = `{
  "name": "unreach-storm", "seed": 13,
  "events": [
    {"type": "unreach_storm", "at_secs": 0.1, "duration_secs": 0.6,
     "storm_pps": 5000, "valid_quote": true}
  ]
}`

// TestUnreachStormClampedEndToEnd: a validated unreachable storm cuts
// the rate at most once per hold period and never below MinRate; the
// same storm with garbled quotes (off-path spoofing) is rejected by
// validation and moves nothing.
func TestUnreachStormClampedEndToEnd(t *testing.T) {
	base := Options{
		Ranges:              []string{"10.0.0.0/16"},
		Ports:               "80",
		Seed:                42,
		Threads:             4,
		Rate:                60_000,
		MinRate:             4_000,
		AdaptiveRate:        true,
		QuarantineThreshold: -1,
		HealthInterval:      25 * time.Millisecond,
	}

	sum, link := weatherScan(t, 910, stormProfile, base)
	if ws := link.WeatherStatsSnapshot(); ws.StormICMP == 0 {
		t.Fatal("storm generated no unreachables")
	}
	if sum.UnreachObserved == 0 {
		t.Fatal("valid-quote storm unreachables did not reach the controller")
	}
	if sum.RateDecreases == 0 {
		t.Error("controller ignored a sustained validated unreachable storm")
	}
	// Hold clamp: the 600ms storm spans at most 1 + ceil(600/100) hold
	// periods (HoldTicks 4 x 25ms interval), so at most 7 cuts.
	if sum.RateDecreases > 7 {
		t.Errorf("storm drove %d decreases, want at most one per hold period (<= 7)", sum.RateDecreases)
	}
	if sum.FinalRatePPS < 4_000 {
		t.Errorf("final rate %.0f below MinRate 4000", sum.FinalRatePPS)
	}

	// Off-path storm: quotes garbled, validation rejects every one.
	garbled := `{
	  "name": "spoofed-storm", "seed": 13,
	  "events": [
	    {"type": "unreach_storm", "at_secs": 0.1, "duration_secs": 0.6,
	     "storm_pps": 5000, "valid_quote": false}
	  ]
	}`
	spoofSum, spoofLink := weatherScan(t, 910, garbled, base)
	if ws := spoofLink.WeatherStatsSnapshot(); ws.StormICMP == 0 {
		t.Fatal("garbled storm generated no unreachables")
	}
	if spoofSum.UnreachObserved != 0 {
		t.Errorf("garbled-quote unreachables passed validation: %d", spoofSum.UnreachObserved)
	}
	if spoofSum.RateDecreases != 0 {
		t.Errorf("off-path storm moved the rate %d times", spoofSum.RateDecreases)
	}
	if spoofSum.FinalRatePPS != 60_000 {
		t.Errorf("off-path storm changed the final rate: %.0f", spoofSum.FinalRatePPS)
	}
}
