package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"zmapgo/internal/packet"
)

func TestFig1ShapeMatchesPaper(t *testing.T) {
	rows := Fig1(nil, 60000, 1)
	if len(rows) != 21 {
		t.Fatalf("%d quarters, want 21", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.Quarter != "2014Q1" || last.Quarter != "2024Q1" {
		t.Error("timeline endpoints wrong")
	}
	// Headline: ~35% in 2024Q1, under 10% in 2014.
	if math.Abs(last.Measured-0.354) > 0.04 {
		t.Errorf("2024Q1 measured %.3f, want ~0.354", last.Measured)
	}
	if first.Measured > 0.10 {
		t.Errorf("2014Q1 measured %.3f, want < 0.10", first.Measured)
	}
	// Broadly increasing (allow sampling jitter between adjacent points).
	if !(rows[5].Measured < rows[15].Measured && rows[15].Measured < last.Measured) {
		t.Error("adoption curve not increasing")
	}
}

func TestFig23ShapeMatchesPaper(t *testing.T) {
	res := Fig23(nil, 400000, 2)
	if len(res.AllScans) != 10 || len(res.ZMapScans) != 10 {
		t.Fatal("want 10 ports per figure")
	}
	rankOf := func(rows []Fig23Row, port uint16) int {
		for _, r := range rows {
			if r.Port == port {
				return r.Rank
			}
		}
		return -1
	}
	// All traffic: 80 and 23 dominate; 8728 appears around rank 6.
	if r := rankOf(res.AllScans, 80); r > 2 {
		t.Errorf("port 80 overall rank %d, want top 2", r)
	}
	if r := rankOf(res.AllScans, 23); r > 2 {
		t.Errorf("port 23 overall rank %d, want top 2", r)
	}
	if r := rankOf(res.AllScans, 8728); r < 4 || r > 8 {
		t.Errorf("port 8728 overall rank %d, want ~6", r)
	}
	// ZMap traffic: 80 first, 8728 high, telnet low.
	if r := rankOf(res.ZMapScans, 80); r != 1 {
		t.Errorf("port 80 zmap rank %d, want 1", r)
	}
	if r := rankOf(res.ZMapScans, 23); r >= 0 && r <= 3 {
		t.Errorf("port 23 zmap rank %d, want low", r)
	}
	// Per-port shares.
	shareOf := func(port uint16) float64 {
		for _, r := range res.AllScans {
			if r.Port == port {
				return r.ZMapShare
			}
		}
		return -1
	}
	checks := []struct {
		port uint16
		want float64
		tol  float64
	}{{80, 0.69, 0.04}, {8080, 0.73, 0.05}, {23, 0.12, 0.04}, {8728, 0.995, 0.01}}
	for _, c := range checks {
		if got := shareOf(c.port); math.Abs(got-c.want) > c.tol {
			t.Errorf("port %d zmap share %.3f, want %.3f±%.2f", c.port, got, c.want, c.tol)
		}
	}
}

func TestFig4MatchesPaperTable(t *testing.T) {
	rows := Fig4(nil, 400000, 3)
	if len(rows) != 10 {
		t.Fatalf("%d countries, want 10", len(rows))
	}
	for _, r := range rows {
		tol := 0.04
		if r.Paper < 0.01 {
			tol = 0.01 // RU/ZA shares are tiny
		}
		if math.Abs(r.Measured-r.Paper) > tol {
			t.Errorf("%s measured %.3f, paper %.3f", r.Country, r.Measured, r.Paper)
		}
	}
}

func TestFig5WindowShape(t *testing.T) {
	rows := Fig5(nil, 1.2, 5)
	if len(rows) != 15 {
		t.Fatalf("%d rows, want 15 (3 rates x 5 windows)", len(rows))
	}
	byRate := map[string][]Fig5Row{}
	for _, r := range rows {
		byRate[r.GbpsLabel] = append(byRate[r.GbpsLabel], r)
	}
	for rate, rs := range byRate {
		// Residual dups must be non-increasing in window size and ~zero
		// at the 10^6 default.
		for i := 1; i < len(rs); i++ {
			if rs[i].LeakedDups > rs[i-1].LeakedDups {
				t.Errorf("%s: leaked dups increased from window %d to %d", rate, rs[i-1].WindowSize, rs[i].WindowSize)
			}
		}
		last := rs[len(rs)-1]
		if last.WindowSize != 1_000_000 {
			t.Fatal("window order wrong")
		}
		if last.Responses > 0 && last.ResidualPct > 0.01 {
			t.Errorf("%s: residual %.4f%% at 10^6 window, want ~0", rate, last.ResidualPct)
		}
		if rs[0].Duplicates == 0 {
			t.Errorf("%s: no duplicates generated; workload broken", rate)
		}
	}
	// Crossover: at the smallest window, the fast scan must leak at
	// least as much as the slow scan (higher rates need bigger windows).
	slow, fast := byRate["0.1 Gbps"][0], byRate["1.0 Gbps"][0]
	if fast.LeakedDups < slow.LeakedDups {
		t.Errorf("fast scan leaked %d < slow %d at window 100", fast.LeakedDups, slow.LeakedDups)
	}
}

func TestFig6BothSchemesPartition(t *testing.T) {
	rows := Fig6(nil, 6)
	for _, r := range rows {
		if r.PizzaCovered != r.Order {
			t.Errorf("%dx%d pizza covered %d of %d", r.Shards, r.Threads, r.PizzaCovered, r.Order)
		}
		if r.InterleavedCovered != r.Order {
			t.Errorf("%dx%d interleaved covered %d of %d", r.Shards, r.Threads, r.InterleavedCovered, r.Order)
		}
		nt := uint64(r.Shards * r.Threads)
		if nt > 1 && r.NaiveMissed == 0 {
			t.Errorf("%dx%d naive endpoint math missed nothing; bug demo broken", r.Shards, r.Threads)
		}
		if r.NaiveMissed >= nt {
			t.Errorf("%dx%d naive missed %d >= NT %d", r.Shards, r.Threads, r.NaiveMissed, nt)
		}
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	rows := Fig7(nil, 3_000_000, 7)
	by := map[packet.OptionLayout]Fig7Row{}
	for _, r := range rows {
		by[r.Layout] = r
	}
	// Single options lift hitrate 1.5-2.0% relative to none.
	for _, l := range []packet.OptionLayout{packet.LayoutMSS, packet.LayoutSACK, packet.LayoutTimestamp, packet.LayoutWScale} {
		lift := by[l].LiftVsNone
		if lift < 0.010 || lift > 0.025 {
			t.Errorf("%v lift %.4f, want within ~1.5-2.0%% band", l, lift)
		}
	}
	// OS layouts find the most; MSS-only finds >99.99% of the OS max.
	max := by[packet.LayoutLinux].Hitrate
	if by[packet.LayoutBSD].Hitrate > max {
		max = by[packet.LayoutBSD].Hitrate
	}
	if by[packet.LayoutWindows].Hitrate > max {
		max = by[packet.LayoutWindows].Hitrate
	}
	if by[packet.LayoutNone].Hitrate >= max {
		t.Error("optionless probe should find fewer than OS layouts")
	}
	if by[packet.LayoutMSS].Hitrate < max*0.9995 {
		t.Errorf("MSS-only found %.6f of OS max %.6f, want > 99.95%%", by[packet.LayoutMSS].Hitrate, max)
	}
	// Optimal order loses a tiny sliver to order-sensitive stacks.
	if by[packet.LayoutOptimal].Hitrate > max {
		t.Error("optimal order should not beat OS-exact layouts")
	}
	// Line rates ride along.
	if math.Abs(by[packet.LayoutMSS].LineRateMpp-1.488) > 0.001 ||
		math.Abs(by[packet.LayoutLinux].LineRateMpp-1.276) > 0.001 {
		t.Error("line-rate columns wrong")
	}
}

func TestLineRateExact(t *testing.T) {
	rows := LineRate(nil)
	want := map[packet.OptionLayout]float64{
		packet.LayoutNone:    1.488,
		packet.LayoutMSS:     1.488,
		packet.LayoutWindows: 1.389,
		packet.LayoutLinux:   1.276,
	}
	for _, r := range rows {
		if w, ok := want[r.Layout]; ok && math.Abs(r.Mpps1GbE-w) > 0.001 {
			t.Errorf("%v: %.3f Mpps, want %.3f", r.Layout, r.Mpps1GbE, w)
		}
	}
}

func TestIPIDHitrateInsignificant(t *testing.T) {
	rows := IPIDHitrate(nil, 400000, 8)
	if len(rows) != 2 {
		t.Fatal("want 2 modes")
	}
	diff := math.Abs(rows[0].Hitrate - rows[1].Hitrate)
	// Both modes sample the same population; difference is loss noise.
	if diff > 0.002 {
		t.Errorf("ip-id hitrate difference %.5f, want ~0 (paper: insignificant)", diff)
	}
	if rows[0].Hitrate == 0 {
		t.Error("no hits; experiment broken")
	}
}

func TestGeneratorsMatchPaper(t *testing.T) {
	rows := Generators(nil, 300, 9)
	if len(rows) == 0 {
		t.Fatal("no groups tested")
	}
	for _, r := range rows {
		if math.Abs(r.AvgAttempts-r.AnalyticExpect) > r.AnalyticExpect*0.25 {
			t.Errorf("group %d: avg attempts %.2f vs analytic %.2f", r.GroupPrime, r.AvgAttempts, r.AnalyticExpect)
		}
		if r.AnalyticExpect < 2 || r.AnalyticExpect > 7 {
			t.Errorf("group %d: analytic attempts %.2f outside 'average four' ballpark", r.GroupPrime, r.AnalyticExpect)
		}
		// The 48-bit group's additive method must be hopeless.
		if r.GroupPrime == (1<<48)+21 && r.AdditiveUsableRate != 0 {
			t.Errorf("48-bit group additive usable rate %.8f, want 0 in sample", r.AdditiveUsableRate)
		}
	}
}

func TestMasscanCoverageOrdering(t *testing.T) {
	rows := Masscan(nil, 1_000_000, 10)
	by := map[string]MasscanRow{}
	for _, r := range rows {
		by[r.Scheme] = r
	}
	if by["zmap-cyclic"].Missed != 0 {
		t.Error("zmap cyclic iteration missed targets")
	}
	if by["blackrock-correct"].Missed != 0 {
		t.Error("correct blackrock missed targets")
	}
	if by["blackrock-biased"].Missed == 0 {
		t.Error("biased blackrock missed nothing; deficit not reproduced")
	}
	// Who wins: ZMap >= biased masscan, with a measurable gap.
	if by["blackrock-biased"].MissRate < 0.001 {
		t.Errorf("biased miss rate %.5f too small to explain the paper's gap", by["blackrock-biased"].MissRate)
	}
}

func TestL4L7MatchesPaperShape(t *testing.T) {
	res := L4L7(nil, 400000, 11)
	if res.L4Open <= res.L7Services {
		t.Error("L4 liveness should overcount services")
	}
	if res.MiddleboxOnly == 0 {
		t.Error("no middlebox-only targets")
	}
	// Port diffusion: small single-digit shares on assigned ports.
	if res.HTTPOn80Share < 0.01 || res.HTTPOn80Share > 0.10 {
		t.Errorf("HTTP-on-80 share %.3f, paper ~0.03", res.HTTPOn80Share)
	}
	if res.TLSOn443Share < 0.02 || res.TLSOn443Share > 0.15 {
		t.Errorf("TLS-on-443 share %.3f, paper ~0.06", res.TLSOn443Share)
	}
	// Visibility: single probe misses ~2.7%; retries/vantage recover most.
	if math.Abs(res.SingleProbeMiss-0.027) > 0.012 {
		t.Errorf("single-probe miss %.4f, paper ~0.027", res.SingleProbeMiss)
	}
	if res.DoubleProbeMiss >= res.SingleProbeMiss {
		t.Error("second probe did not reduce misses")
	}
	if res.TwoVantageMiss >= res.SingleProbeMiss {
		t.Error("second vantage did not reduce misses")
	}
	// The Wan et al. ordering: a second vantage recovers much more than
	// a retry from the same vantage (correlated path outages persist).
	if res.TwoVantageMiss >= res.DoubleProbeMiss {
		t.Errorf("two vantages (%.4f) should beat two probes (%.4f)", res.TwoVantageMiss, res.DoubleProbeMiss)
	}
	if res.DoubleProbeMiss < res.SingleProbeMiss/4 {
		t.Errorf("retry recovered too much (%.4f of %.4f); correlated component missing", res.DoubleProbeMiss, res.SingleProbeMiss)
	}
}

func TestFig8Table(t *testing.T) {
	var buf bytes.Buffer
	topics := Fig8(&buf)
	if len(topics) != 21 {
		t.Errorf("topics = %d", len(topics))
	}
	if !strings.Contains(buf.String(), "direct-use=307") {
		t.Error("figure 8 output missing totals")
	}
}

func TestExperimentsPrintOutput(t *testing.T) {
	// Smoke: every experiment writes a banner and rows when given a writer.
	var buf bytes.Buffer
	Fig1(&buf, 20000, 1)
	Fig23(&buf, 20000, 1)
	Fig4(&buf, 20000, 1)
	Fig5(&buf, 0.05, 1)
	Fig6(&buf, 1)
	Fig7(&buf, 200000, 1)
	LineRate(&buf)
	IPIDHitrate(&buf, 50000, 1)
	Generators(&buf, 50, 1)
	Masscan(&buf, 60_000, 1)
	L4L7(&buf, 50000, 1)
	DedupMem(&buf)
	Fig8(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 1", "Figure 2", "Figure 3", "Figure 4",
		"Figure 5", "Figure 6", "Figure 7", "Figure 8", "line rate", "IP ID",
		"generator search", "randomization coverage", "L4 vs L7", "dedup memory"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestDedupMemPaperFigures(t *testing.T) {
	rows := DedupMem(nil)
	if rows[0].Bytes != 512<<20 {
		t.Errorf("2^32 bitmap = %d, want 512 MB", rows[0].Bytes)
	}
	if rows[1].Bytes/1e12 < 35 || rows[1].Bytes/1e12 > 36 {
		t.Errorf("48-bit bitmap = %d, want ~35 TB", rows[1].Bytes)
	}
	if rows[2].Bytes >= rows[0].Bytes {
		t.Errorf("window memory %d not below 512 MB bitmap", rows[2].Bytes)
	}
}

func TestFingerprintDetectsZMapOnly(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		rows := Fingerprint(nil, 256, workers, 13)
		by := map[string]FingerprintRow{}
		for _, r := range rows {
			by[r.Source] = r
		}
		pizza := by["zmap-pizza"]
		if !pizza.Detected {
			t.Errorf("workers=%d: pizza scan not fingerprinted", workers)
		} else {
			if pizza.Lag != workers {
				t.Errorf("workers=%d: pizza detected at lag %d, want %d", workers, pizza.Lag, workers)
			}
			if pizza.Multiplier != pizza.Expected {
				t.Errorf("workers=%d: pizza multiplier %d, want generator %d", workers, pizza.Multiplier, pizza.Expected)
			}
		}
		inter := by["zmap-interleaved"]
		if !inter.Detected {
			t.Errorf("workers=%d: interleaved scan not fingerprinted", workers)
		} else {
			if inter.Lag != 1 {
				t.Errorf("workers=%d: interleaved detected at lag %d, want 1 (round-robin reconstructs the sequential walk)", workers, inter.Lag)
			}
			if inter.Multiplier != inter.Expected {
				t.Errorf("workers=%d: interleaved multiplier %d, want generator %d", workers, inter.Multiplier, inter.Expected)
			}
		}
		if by["random"].Detected {
			t.Errorf("workers=%d: random stream misidentified as ZMap", workers)
		}
	}
}

func TestFig7EndToEndOrdering(t *testing.T) {
	rows := Fig7EndToEnd(nil, 15, 14) // /17: 32768 addresses x 3 layouts
	by := map[packet.OptionLayout]Fig7E2ERow{}
	for _, r := range rows {
		by[r.Layout] = r
	}
	none, mss, linux := by[packet.LayoutNone], by[packet.LayoutMSS], by[packet.LayoutLinux]
	if none.Probes != mss.Probes || mss.Probes != linux.Probes {
		t.Fatalf("probe counts differ: %d %d %d", none.Probes, mss.Probes, linux.Probes)
	}
	if none.Hits >= mss.Hits {
		t.Errorf("engine path: optionless %d hits >= mss %d", none.Hits, mss.Hits)
	}
	if mss.Hits > linux.Hits {
		t.Errorf("engine path: mss %d hits > linux %d", mss.Hits, linux.Hits)
	}
	// Relative lift should land near the analytic 1.5-2% band, with slack
	// for the smaller sample.
	lift := float64(linux.Hits)/float64(none.Hits) - 1
	if lift < 0.005 || lift > 0.05 {
		t.Errorf("engine-measured lift %.4f, want roughly 1.5-2%%", lift)
	}
}

func TestTopASMatchesPaperClaims(t *testing.T) {
	res := TopAS(nil, 250000, 15)
	if len(res.Rows) < 5 {
		t.Fatalf("only %d ASes ranked", len(res.Rows))
	}
	if res.TopCategory != "cloud" {
		t.Errorf("top ZMap AS category %q, paper: cloud (GCP)", res.TopCategory)
	}
	// Universities must rank at the bottom, never near the top.
	for _, r := range res.Rows[:3] {
		if r.Category == "university" {
			t.Errorf("university AS at rank %d", r.Rank)
		}
	}
	// Security companies should hold multiple top-5 slots.
	sec := 0
	for _, r := range res.Rows[:5] {
		if r.Category == "security-company" || r.Category == "cloud" {
			sec++
		}
	}
	if sec < 4 {
		t.Errorf("only %d of top 5 ASes are cloud/security; paper says they dominate", sec)
	}
}

func TestDedupAblationAgreement(t *testing.T) {
	rows := DedupAblation(nil, 14, 16) // /18
	if len(rows) != 2 {
		t.Fatal("want 2 designs")
	}
	bitmap, window := rows[0], rows[1]
	if bitmap.UniqueSucc != window.UniqueSucc {
		t.Errorf("unique successes differ: bitmap %d, window %d", bitmap.UniqueSucc, window.UniqueSucc)
	}
	if bitmap.Duplicates == 0 || window.Duplicates == 0 {
		t.Error("double probing produced no duplicates; ablation vacuous")
	}
	if bitmap.UniqueSucc == 0 {
		t.Error("no services found")
	}
}

func TestLegacyBitmapDeduper(t *testing.T) {
	// The 2013 bitmap, fed the responses the engine classified, must
	// suppress exactly the repeats the window does, in its paged memory.
	rows := DedupAblation(nil, 14, 16)
	bitmap, window := rows[0], rows[1]
	if bitmap.Duplicates == 0 {
		t.Error("bitmap deduper saw no duplicates under double probing")
	}
	if bitmap.Duplicates != window.Duplicates {
		t.Errorf("bitmap flagged %d repeats, window %d", bitmap.Duplicates, window.Duplicates)
	}
	if bitmap.MemoryBytes == 0 || bitmap.MemoryBytes >= window.MemoryBytes {
		t.Errorf("bitmap holds %d bytes for a /18, window %d: pages not allocated on demand",
			bitmap.MemoryBytes, window.MemoryBytes)
	}
}
