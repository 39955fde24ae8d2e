package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/netsim"
	"zmapgo/internal/output"
	"zmapgo/internal/packet"
	"zmapgo/internal/target"
)

// core.Transport and netsim.Transport are one contract declared twice
// (netsim cannot import core): each must satisfy the other, and every
// in-tree transport both.
var (
	_ Transport        = netsim.Transport(nil)
	_ netsim.Transport = Transport(nil)
	_ Transport        = (*netsim.Link)(nil)
	_ Transport        = (*netsim.FaultyTransport)(nil)
	_ Transport        = (*netsim.RecvFaultTransport)(nil)
)

// collectWriter accumulates records under a lock (the engine writes from
// one goroutine, but tests read after Run returns).
type collectWriter struct {
	mu      sync.Mutex
	records []output.Record
}

func (c *collectWriter) Write(r output.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.records = append(c.records, r)
	return nil
}

func (c *collectWriter) Close() error { return nil }

func (c *collectWriter) all() []output.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]output.Record{}, c.records...)
}

// testbed builds a small lossless simulated Internet plus a base config
// covering 10.0.0.0/18 (16384 addresses) on the given ports.
func testbed(t *testing.T, seed uint64, ports string) (netsimInternet *netsim.Internet, cfg Config, sink *collectWriter) {
	t.Helper()
	simCfg := netsim.DefaultConfig(seed)
	simCfg.ProbeLoss, simCfg.ResponseLoss, simCfg.PathBadFraction = 0, 0, 0
	simCfg.BlowbackFraction = 0 // exact counts in engine tests
	in := netsim.New(simCfg)

	cons := target.NewConstraint(false)
	cons.Allow(0x0A000000, 18)
	ps, err := target.ParsePorts(ports)
	if err != nil {
		t.Fatal(err)
	}
	sink = &collectWriter{}
	cfg = Config{
		Constraint:   cons,
		Ports:        ps,
		Seed:         int64(seed) + 1,
		Threads:      4,
		Cooldown:     200 * time.Millisecond,
		SourceIP:     0xC0A80002,
		SourceMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		GatewayMAC:   packet.MAC{2, 0, 0, 0, 0, 2},
		OptionLayout: packet.LayoutMSS,
		RandomIPID:   true,
		Results:      sink,
	}
	return in, cfg, sink
}

// resumeFrom is the resume record of an interrupted run: prev's
// configuration fingerprint plus the per-thread progress it reported
// (Metadata.ThreadProgress), as its final checkpoint would carry them.
func resumeFrom(prev *Scanner, progress []uint64) *checkpoint.Snapshot {
	return &checkpoint.Snapshot{Fingerprint: prev.Fingerprint(), Progress: progress}
}

// expectedHits counts loss-free SYN-ACK targets in the scanned range.
func expectedHits(in *netsim.Internet, ports []uint16, layout packet.OptionLayout) int {
	return expectedHitsIn(in, 16384, ports, layout)
}

// expectedHitsIn counts them among the addrs addresses from 10.0.0.0.
func expectedHitsIn(in *netsim.Internet, addrs uint32, ports []uint16, layout packet.OptionLayout) int {
	opts := packet.BuildOptions(layout, 0)
	n := 0
	for ip := uint32(0x0A000000); ip < 0x0A000000+addrs; ip++ {
		for _, p := range ports {
			if in.ExpectedSYNACK(ip, p, opts) {
				n++
			}
		}
	}
	return n
}

func TestScanFindsExactlyTheOpenServices(t *testing.T) {
	in, cfg, sink := testbed(t, 100, "80")
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := expectedHits(in, []uint16{80}, packet.LayoutMSS)
	var successes []output.Record
	seen := map[string]bool{}
	for _, r := range sink.all() {
		if r.Success && !r.Repeat {
			successes = append(successes, r)
			if seen[r.Saddr()] {
				t.Errorf("duplicate success for %s not marked repeat", r.Saddr())
			}
			seen[r.Saddr()] = true
		}
	}
	if len(successes) != want {
		t.Errorf("found %d services, ground truth %d", len(successes), want)
	}
	if meta.UniqueSucc != uint64(want) {
		t.Errorf("metadata unique successes %d, want %d", meta.UniqueSucc, want)
	}
	if meta.PacketsSent != 16384 {
		t.Errorf("sent %d probes, want 16384", meta.PacketsSent)
	}
	// Every reported success is a real service or middlebox.
	opts := packet.BuildOptions(packet.LayoutMSS, 0)
	for _, r := range successes {
		if !in.ExpectedSYNACK(r.IP, 80, opts) {
			t.Errorf("false positive: %s", r.Saddr())
		}
	}
}

func TestScanMultiportTargets(t *testing.T) {
	in, cfg, sink := testbed(t, 101, "80,443,22")
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	if s.Space().NumPorts != 3 {
		t.Fatalf("space ports = %d", s.Space().NumPorts)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.PacketsSent != 16384*3 {
		t.Errorf("sent %d, want %d", meta.PacketsSent, 16384*3)
	}
	want := expectedHits(in, []uint16{22, 80, 443}, packet.LayoutMSS)
	got := 0
	perPort := map[uint16]int{}
	for _, r := range sink.all() {
		if r.Success && !r.Repeat {
			got++
			perPort[r.Sport]++
		}
	}
	if got != want {
		t.Errorf("multiport found %d, ground truth %d", got, want)
	}
	for _, p := range []uint16{22, 80, 443} {
		if perPort[p] == 0 {
			t.Errorf("no hits on port %d", p)
		}
	}
}

func TestScanDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		in, cfg, sink := testbed(t, 102, "80")
		link := netsim.NewLink(in, 1<<16, 0)
		defer link.Close()
		s, err := New(cfg, link)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var addrs []string
		for _, r := range sink.all() {
			if r.Success {
				addrs = append(addrs, r.Saddr())
			}
		}
		return addrs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs found %d vs %d", len(a), len(b))
	}
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if !set[x] {
			t.Fatalf("run 2 found %s missing from run 1", x)
		}
	}
}

func TestShardsPartitionScan(t *testing.T) {
	// Three shards with the same seed must probe disjoint targets whose
	// union is the full space — the distributed-scan guarantee.
	const shards = 3
	var all []output.Record
	var totalSent uint64
	for idx := 0; idx < shards; idx++ {
		in, cfg, sink := testbed(t, 103, "80")
		cfg.Shards = shards
		cfg.ShardIndex = idx
		cfg.Seed = 777 // shared across shards
		link := netsim.NewLink(in, 1<<16, 0)
		s, err := New(cfg, link)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		totalSent += meta.PacketsSent
		all = append(all, sink.all()...)
		link.Close()
	}
	if totalSent != 16384 {
		t.Errorf("shards sent %d total probes, want 16384", totalSent)
	}
	seen := map[string]int{}
	for _, r := range all {
		if r.Success && !r.Repeat {
			seen[r.Saddr()]++
		}
	}
	for addr, n := range seen {
		if n != 1 {
			t.Errorf("%s found by %d shards", addr, n)
		}
	}
	in, _, _ := testbed(t, 103, "80")
	want := expectedHits(in, []uint16{80}, packet.LayoutMSS)
	if len(seen) != want {
		t.Errorf("union found %d, ground truth %d", len(seen), want)
	}
}

func TestMaxTargetsCap(t *testing.T) {
	// The cap is one budget every sender thread draws from: exact at any
	// thread count and batch size, whether it binds or not. Three ports
	// leave a fourth, empty port slot per address, so there a capped
	// target can follow a run of skipped elements.
	inputs := []struct {
		prefix, ports string
		eligible      uint64
	}{
		{"", "80", 1 << 12},
		{"ports=3/", "80,443,22", 3 << 12},
	}
	for _, in := range inputs {
		eligible := in.eligible
		for _, threads := range []int{1, 2, 4, 8} {
			for _, batch := range []int{1, 64} {
				for _, maxTargets := range []uint64{100, eligible - 1, eligible + 1} {
					name := fmt.Sprintf("%sthreads=%d/batch=%d/cap=%d", in.prefix, threads, batch, maxTargets)
					t.Run(name, func(t *testing.T) {
						cfg := nullScan(t, 12, threads)
						cfg.Ports = mustPorts(t, in.ports)
						cfg.BatchSize, cfg.MaxTargets = batch, maxTargets
						s, err := New(cfg, &nullTransport{})
						if err != nil {
							t.Fatal(err)
						}
						meta, err := s.Run(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						if want := min(maxTargets, eligible); meta.TargetsScanned != want {
							t.Errorf("targets_scanned = %d, want %d", meta.TargetsScanned, want)
						}
						if meta.PacketsSent != meta.TargetsScanned*uint64(meta.Probes) {
							t.Errorf("sent %d probes for %d targets", meta.PacketsSent, meta.TargetsScanned)
						}
						assertBooksBalance(t, meta, s.Registry(), 0)
					})
				}
			}
		}
	}
}

func TestProbesPerTarget(t *testing.T) {
	in, cfg, _ := testbed(t, 106, "80")
	cfg.ProbesPerTarget = 2
	link := netsim.NewLink(in, 1<<17, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.PacketsSent != 2*16384 {
		t.Errorf("sent %d, want %d", meta.PacketsSent, 2*16384)
	}
	// Duplicate responses from double probing must be marked repeats.
	if meta.Duplicates == 0 {
		t.Error("double probing produced no duplicate classifications")
	}
	if meta.UniqueSucc > meta.Successes {
		t.Error("unique successes exceed successes")
	}
}

func TestDedupDisabled(t *testing.T) {
	in, cfg, sink := testbed(t, 107, "80")
	cfg.ProbesPerTarget = 2
	cfg.DedupWindow = -1
	link := netsim.NewLink(in, 1<<17, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, r := range sink.all() {
		if r.Repeat {
			t.Fatal("repeat flagged with dedup disabled")
		}
	}
}

func TestContextCancellation(t *testing.T) {
	in, cfg, _ := testbed(t, 109, "80")
	cfg.Rate = 50 // slow enough that cancellation lands mid-scan
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	meta, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not stop the scan promptly")
	}
	if meta.PacketsSent >= 16384 {
		t.Error("scan completed despite cancellation")
	}
}

func TestConfigValidation(t *testing.T) {
	in, good, _ := testbed(t, 110, "80")
	link := netsim.NewLink(in, 16, 0)
	defer link.Close()

	c := good
	c.Constraint = nil
	if _, err := New(c, link); err == nil {
		t.Error("nil constraint accepted")
	}
	c = good
	c.Ports = nil
	if _, err := New(c, link); err == nil {
		t.Error("nil ports accepted")
	}
	c = good
	c.Results = nil
	if _, err := New(c, link); err == nil {
		t.Error("nil results accepted")
	}
	c = good
	c.ProbeModule = "bogus"
	if _, err := New(c, link); err == nil {
		t.Error("bogus module accepted")
	}
	c = good
	c.Shards = 2
	c.ShardIndex = 2
	if _, err := New(c, link); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := New(good, nil); err == nil {
		t.Error("nil transport accepted")
	}
	empty := target.NewConstraint(false)
	c = good
	c.Constraint = empty
	if _, err := New(c, link); err == nil {
		t.Error("empty constraint accepted")
	}
}

func TestStatusStreamEmits(t *testing.T) {
	in, cfg, _ := testbed(t, 111, "80")
	var status bytes.Buffer
	cfg.StatusWriter = &safeBuffer{buf: &status}
	cfg.Cooldown = 50 * time.Millisecond
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := cfg.StatusWriter.(*safeBuffer).String()
	if !strings.Contains(out, ",") {
		t.Errorf("no status lines emitted: %q", out)
	}
}

type safeBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *safeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

func TestMetadataFields(t *testing.T) {
	in, cfg, _ := testbed(t, 112, "80,443")
	var metaBuf bytes.Buffer
	cfg.MetadataOut = &metaBuf
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Tool != "zmapgo" || meta.Version != Version {
		t.Error("identity fields wrong")
	}
	if meta.Ports != "80,443" {
		t.Errorf("ports = %q", meta.Ports)
	}
	if meta.Group == 0 || meta.Generator == 0 {
		t.Error("cyclic parameters missing from metadata")
	}
	if meta.Duration <= 0 || meta.EndTime.Before(meta.StartTime) {
		t.Error("timing fields wrong")
	}
	if meta.HitRate <= 0 || meta.HitRate > 1 {
		t.Errorf("hit rate %f out of range", meta.HitRate)
	}
	if metaBuf.Len() == 0 {
		t.Error("metadata stream empty")
	}
}

func TestRateLimitedScanDuration(t *testing.T) {
	in, cfg, _ := testbed(t, 113, "80")
	cfg.MaxTargets = 500
	cfg.Rate = 2000 // 500 probes at 2 kpps ~ 250ms minimum
	cfg.Threads = 1
	cfg.Cooldown = 10 * time.Millisecond
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("rate-limited scan finished in %v, expected >= ~250ms", elapsed)
	}
}

func BenchmarkEndToEndScan(b *testing.B) {
	simCfg := netsim.DefaultConfig(42)
	simCfg.ProbeLoss, simCfg.ResponseLoss, simCfg.PathBadFraction = 0, 0, 0
	in := netsim.New(simCfg)
	for i := 0; i < b.N; i++ {
		cons := target.NewConstraint(false)
		cons.Allow(0x0A000000, 18)
		ps, _ := target.ParsePorts("80")
		link := netsim.NewLink(in, 1<<16, 0)
		s, err := New(Config{
			Constraint:   cons,
			Ports:        ps,
			Seed:         int64(i) + 1,
			Threads:      4,
			Cooldown:     time.Millisecond,
			SourceIP:     1,
			OptionLayout: packet.LayoutMSS,
			Results:      &output.CountingWriter{},
		}, link)
		if err != nil {
			b.Fatal(err)
		}
		meta, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(meta.SendRatePPS), "probes/sec")
		link.Close()
	}
}

func TestMaxRuntimeStopsSending(t *testing.T) {
	in, cfg, _ := testbed(t, 114, "80")
	cfg.Rate = 2000
	cfg.Threads = 1
	cfg.MaxRuntime = 150 * time.Millisecond
	cfg.Cooldown = 50 * time.Millisecond
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// ~150ms at 2000pps => ~300 probes, certainly well short of 16384.
	if meta.PacketsSent >= 16384 {
		t.Errorf("MaxRuntime did not stop sending: %d probes", meta.PacketsSent)
	}
	if meta.PacketsSent == 0 {
		t.Error("no probes sent at all")
	}
}

func TestICMPEchoScanEndToEnd(t *testing.T) {
	in, cfg, sink := testbed(t, 115, "0")
	cfg.ProbeModule = "icmp_echoscan"
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.PacketsSent != 16384 {
		t.Errorf("sent %d, want 16384", meta.PacketsSent)
	}
	// ~10% live x 80% echo => ~8% hitrate.
	rate := float64(meta.UniqueSucc) / float64(meta.PacketsSent)
	if rate < 0.06 || rate > 0.10 {
		t.Errorf("echo hitrate %.4f, want ~0.08", rate)
	}
	for _, r := range sink.all() {
		if r.Classification != "echoreply" {
			t.Fatalf("unexpected class %q", r.Classification)
		}
	}
}

func TestUDPScanEndToEnd(t *testing.T) {
	in, cfg, sink := testbed(t, 116, "53")
	cfg.ProbeModule = "udp"
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var udp, unreach int
	for _, r := range sink.all() {
		switch r.Classification {
		case "udp":
			udp++
		case "port-unreach":
			unreach++
		default:
			t.Fatalf("unexpected class %q", r.Classification)
		}
	}
	if udp == 0 || unreach == 0 {
		t.Errorf("udp=%d unreach=%d; want both nonzero", udp, unreach)
	}
	if meta.ValidResponses == 0 {
		t.Error("no valid responses recorded")
	}
}

func TestSYNACKScanEndToEnd(t *testing.T) {
	in, cfg, sink := testbed(t, 117, "80")
	cfg.ProbeModule = "tcp_synackscan"
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// ~10% live x 85% RST => ~8.5% hitrate.
	rate := float64(meta.UniqueSucc) / float64(meta.PacketsSent)
	if rate < 0.06 || rate > 0.11 {
		t.Errorf("synackscan hitrate %.4f, want ~0.085", rate)
	}
	for _, r := range sink.all() {
		if r.Classification != "rst" || !r.Success {
			t.Fatalf("unexpected record %+v", r)
		}
	}
}

func TestResumeCoversExactlyOnce(t *testing.T) {
	// Interrupt a scan partway, resume it from the reported progress, and
	// verify the union of the two runs probes every target exactly once.
	in, cfg, sink1 := testbed(t, 118, "80")
	cfg.MaxTargets = 6000 // interrupt: ~6000 of 16384 targets
	cfg.Threads = 4
	link1 := netsim.NewLink(in, 1<<16, 0)
	s1, err := New(cfg, link1)
	if err != nil {
		t.Fatal(err)
	}
	meta1, err := s1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	link1.Close()
	if len(meta1.ThreadProgress) != 4 {
		t.Fatalf("thread progress %v", meta1.ThreadProgress)
	}

	in2, cfg2, sink2 := testbed(t, 118, "80")
	cfg2.Seed = cfg.Seed
	cfg2.Threads = 4
	cfg2.Resume = resumeFrom(s1, meta1.ThreadProgress)
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

	total := meta1.PacketsSent + meta2.PacketsSent
	if total != 16384 {
		t.Errorf("runs sent %d+%d = %d probes, want 16384 exactly",
			meta1.PacketsSent, meta2.PacketsSent, total)
	}
	seen := map[string]int{}
	for _, r := range append(sink1.all(), sink2.all()...) {
		if r.Success && !r.Repeat {
			seen[r.Saddr()]++
		}
	}
	for addr, n := range seen {
		if n != 1 {
			t.Errorf("%s probed by both halves (%d)", addr, n)
		}
	}
	want := expectedHits(in, []uint16{80}, packet.LayoutMSS)
	if len(seen) != want {
		t.Errorf("union found %d services, ground truth %d", len(seen), want)
	}
}

func TestResumeRefusesWrongLengthProgress(t *testing.T) {
	in, cfg, _ := testbed(t, 119, "80")
	cfg.Threads = 4
	link := netsim.NewLink(in, 16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = resumeFrom(s, []uint64{1, 2}) // fingerprint says 4 threads
	if _, err := New(cfg, link); err == nil {
		t.Error("snapshot with mismatched progress length accepted")
	}
}

func TestResumeBeyondEndIsEmpty(t *testing.T) {
	in, cfg, _ := testbed(t, 120, "80")
	cfg.Threads = 1
	link := netsim.NewLink(in, 1<<12, 0)
	defer link.Close()
	s0, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = resumeFrom(s0, []uint64{1 << 40}) // past the end
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.PacketsSent != 0 {
		t.Errorf("resumed-past-end scan sent %d probes", meta.PacketsSent)
	}
}

func TestScanGroundTruthProperty(t *testing.T) {
	// Property: for arbitrary population and permutation seeds, a
	// lossless scan finds exactly the ground-truth responder set.
	for trial := uint64(0); trial < 4; trial++ {
		seed := 300 + trial
		in, cfg, sink := testbed(t, seed, "80")
		link := netsim.NewLink(in, 1<<16, 0)
		s, err := New(cfg, link)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := expectedHits(in, []uint16{80}, packet.LayoutMSS)
		if int(meta.UniqueSucc) != want {
			t.Errorf("seed %d: found %d, ground truth %d", seed, meta.UniqueSucc, want)
		}
		uniq := map[string]bool{}
		for _, r := range sink.all() {
			if r.Success && !r.Repeat {
				uniq[r.Saddr()] = true
			}
		}
		if len(uniq) != want {
			t.Errorf("seed %d: emitted %d unique, want %d", seed, len(uniq), want)
		}
		link.Close()
	}
}
