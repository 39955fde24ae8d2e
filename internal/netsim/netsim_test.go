package netsim

import (
	"strings"
	"testing"
	"time"

	"zmapgo/internal/packet"
)

func sim(seed uint64) *Internet { return New(DefaultConfig(seed)) }

// lossless returns a config with packet loss disabled, for exact checks.
func lossless(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.ProbeLoss, cfg.ResponseLoss, cfg.PathBadFraction = 0, 0, 0
	return cfg
}

var probeSrcMAC = packet.MAC{0x02, 0, 0, 0, 0, 9}

func buildSYNProbe(dst uint32, port uint16, layout packet.OptionLayout) []byte {
	opts := packet.BuildOptions(layout, 12345)
	buf := packet.AppendEthernet(nil, probeSrcMAC, packet.MAC{}, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID: packet.ZMapIPID, TTL: 255, Protocol: packet.ProtocolTCP,
		Src: 0xC0000201, Dst: dst,
	}, packet.TCPHeaderLen+len(opts))
	buf, _ = packet.AppendTCP(buf, packet.TCP{
		SrcPort: 54321, DstPort: port, Seq: 0x1000, Flags: packet.FlagSYN,
		Window: 65535, Options: opts,
	}, 0xC0000201, dst, nil)
	return buf
}

func TestDeterminism(t *testing.T) {
	a, b := sim(7), sim(7)
	for ip := uint32(0); ip < 5000; ip++ {
		if a.Live(ip) != b.Live(ip) {
			t.Fatal("Live differs between identical seeds")
		}
		if a.ServiceOpen(ip, 80) != b.ServiceOpen(ip, 80) {
			t.Fatal("ServiceOpen differs between identical seeds")
		}
		if a.Middlebox(ip) != b.Middlebox(ip) {
			t.Fatal("Middlebox differs between identical seeds")
		}
	}
}

func TestSeedsProduceDifferentPopulations(t *testing.T) {
	a, b := sim(1), sim(2)
	same := 0
	const n = 10000
	for ip := uint32(0); ip < n; ip++ {
		if a.Live(ip) == b.Live(ip) {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical liveness")
	}
}

func TestLiveFractionCalibrated(t *testing.T) {
	in := sim(3)
	live := 0
	const n = 200000
	for ip := uint32(0); ip < n; ip++ {
		if in.Live(ip) {
			live++
		}
	}
	frac := float64(live) / n
	want := in.Config().LiveFraction
	if frac < want*0.9 || frac > want*1.1 {
		t.Errorf("live fraction %.4f, want ~%.2f", frac, want)
	}
}

func TestServiceRequiresLiveHost(t *testing.T) {
	in := sim(4)
	for ip := uint32(0); ip < 50000; ip++ {
		if !in.Live(ip) && in.ServiceOpen(ip, 80) {
			t.Fatalf("dead host %d has open service", ip)
		}
	}
}

func TestMiddleboxPerPrefix(t *testing.T) {
	in := sim(5)
	// All addresses in one /16 share a middlebox decision.
	found := false
	for prefix := uint32(0); prefix < 3000 && !found; prefix++ {
		base := prefix << 16
		if in.Middlebox(base) {
			found = true
			for off := uint32(0); off < 1000; off++ {
				if !in.Middlebox(base | off) {
					t.Fatal("middlebox decision differs within a /16")
				}
			}
		}
	}
	if !found {
		t.Error("no middlebox prefix among 3000 /16s at 0.4% density; suspicious")
	}
}

func TestOptionSensitiveHitrates(t *testing.T) {
	// The Figure 7 invariant at population level: among open services,
	// optionless SYNs reach ~98%, MSS-only >99.9%, and a full OS layout
	// reaches ~100%.
	in := New(lossless(6))
	var open, none, mssOnly, linux int
	noneOpts := packet.BuildOptions(packet.LayoutNone, 0)
	mssOpts := packet.BuildOptions(packet.LayoutMSS, 0)
	linuxOpts := packet.BuildOptions(packet.LayoutLinux, 0)
	for ip := uint32(0); ip < 3_000_000 && open < 40000; ip += 3 {
		if !in.ServiceOpen(ip, 80) {
			continue
		}
		open++
		if in.AcceptsSYN(ip, 80, noneOpts) {
			none++
		}
		if in.AcceptsSYN(ip, 80, mssOpts) {
			mssOnly++
		}
		if in.AcceptsSYN(ip, 80, linuxOpts) {
			linux++
		}
	}
	if open < 1000 {
		t.Fatalf("too few open services sampled: %d", open)
	}
	noneRate := float64(none) / float64(open)
	mssRate := float64(mssOnly) / float64(open)
	linuxRate := float64(linux) / float64(open)
	if noneRate > 0.99 || noneRate < 0.97 {
		t.Errorf("optionless acceptance %.4f, want ~0.98", noneRate)
	}
	if mssRate < 0.9995 {
		t.Errorf("MSS-only acceptance %.5f, want > 0.9995", mssRate)
	}
	if linuxRate < mssRate {
		t.Errorf("linux layout acceptance %.5f below MSS %.5f", linuxRate, mssRate)
	}
	// Relative improvement of options over none: 1.5-2.0% band.
	lift := linuxRate/noneRate - 1
	if lift < 0.013 || lift > 0.025 {
		t.Errorf("option hitrate lift %.4f, want ~0.015-0.020", lift)
	}
}

func TestOrderSensitiveHostsAcceptOnlyOSLayouts(t *testing.T) {
	in := New(lossless(8))
	// Find an order-sensitive service by scanning.
	foundIP := uint32(0)
	found := false
	for ip := uint32(0); ip < 30_000_000; ip++ {
		if in.optionReq(ip, 80) == requiresOSOrder && in.ServiceOpen(ip, 80) {
			foundIP = ip
			found = true
			break
		}
	}
	if !found {
		t.Skip("no order-sensitive open service in sample (density 2.3e-5)")
	}
	for _, l := range []packet.OptionLayout{packet.LayoutLinux, packet.LayoutBSD, packet.LayoutWindows} {
		if !in.AcceptsSYN(foundIP, 80, packet.BuildOptions(l, 99)) {
			t.Errorf("order-sensitive host rejected %v layout", l)
		}
	}
	for _, l := range []packet.OptionLayout{packet.LayoutNone, packet.LayoutMSS, packet.LayoutOptimal} {
		if in.AcceptsSYN(foundIP, 80, packet.BuildOptions(l, 99)) {
			t.Errorf("order-sensitive host accepted %v layout", l)
		}
	}
}

func TestRespondSYNACKForOpenService(t *testing.T) {
	in := New(lossless(10))
	// Find an open non-middlebox service.
	var ip uint32
	for ; ; ip++ {
		if in.ServiceOpen(ip, 80) && !in.Middlebox(ip) && in.AcceptsSYN(ip, 80, packet.BuildOptions(packet.LayoutMSS, 0)) && in.BlowbackCount(ip, 80) == 0 {
			break
		}
	}
	rs := in.Respond(buildSYNProbe(ip, 80, packet.LayoutMSS))
	if len(rs) != 1 {
		t.Fatalf("got %d responses, want 1", len(rs))
	}
	f, err := packet.Parse(rs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.TCP == nil || f.TCP.Flags != packet.FlagSYN|packet.FlagACK {
		t.Fatalf("expected SYN-ACK, got %+v", f.TCP)
	}
	if f.IP.Src != ip || f.TCP.SrcPort != 80 || f.TCP.DstPort != 54321 {
		t.Error("response tuple not mirrored")
	}
	if f.TCP.Ack != 0x1000+1 {
		t.Errorf("ack = %d, want seq+1", f.TCP.Ack)
	}
	if rs[0].Delay != in.RTT(ip) {
		t.Error("delay should equal host RTT")
	}
}

func TestRespondRSTForClosedPort(t *testing.T) {
	in := New(lossless(11))
	var ip uint32
	found := false
	for ip = 0; ip < 1_000_000; ip++ {
		if in.Live(ip) && !in.Middlebox(ip) && !in.ServiceOpen(ip, 81) &&
			uniform(in.hash(purposeRST, ip, 81)) < in.Config().RSTFraction {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no RST host found")
	}
	rs := in.Respond(buildSYNProbe(ip, 81, packet.LayoutMSS))
	if len(rs) != 1 {
		t.Fatalf("got %d responses, want 1 RST", len(rs))
	}
	f, _ := packet.Parse(rs[0].Frame)
	if f.TCP == nil || f.TCP.Flags&packet.FlagRST == 0 {
		t.Fatal("expected RST")
	}
}

func TestRespondSilenceForDeadHost(t *testing.T) {
	in := New(lossless(12))
	var ip uint32
	for ; ; ip++ {
		if !in.Live(ip) && !in.Middlebox(ip) {
			break
		}
	}
	if rs := in.Respond(buildSYNProbe(ip, 80, packet.LayoutMSS)); len(rs) != 0 {
		t.Fatalf("dead host responded: %d frames", len(rs))
	}
}

func TestMiddleboxSYNACKsEverything(t *testing.T) {
	in := New(lossless(13))
	var ip uint32
	for ; ; ip++ {
		if in.Middlebox(ip) && !in.Live(ip) {
			break
		}
	}
	for _, port := range []uint16{80, 81, 9999, 31337} {
		rs := in.Respond(buildSYNProbe(ip, port, packet.LayoutNone))
		if len(rs) != 1 {
			t.Fatalf("middlebox port %d: %d responses, want 1", port, len(rs))
		}
		f, _ := packet.Parse(rs[0].Frame)
		if f.TCP.Flags != packet.FlagSYN|packet.FlagACK {
			t.Fatal("middlebox should SYN-ACK")
		}
		// And there is no banner behind it.
		if in.Banner(ip, port) != "" {
			t.Error("middlebox host has a banner")
		}
	}
}

func TestRespondIgnoresNonSYN(t *testing.T) {
	in := New(lossless(14))
	probe := buildSYNProbe(1, 80, packet.LayoutMSS)
	// Flip SYN to ACK.
	flagIdx := packet.EthernetHeaderLen + packet.IPv4HeaderLen + 13
	probe[flagIdx] = packet.FlagACK
	// Recompute TCP checksum irrelevant: responder parses but only
	// checks flags, so response must be empty regardless.
	if rs := in.Respond(probe); len(rs) != 0 {
		t.Error("non-SYN TCP probe elicited a response")
	}
	if rs := in.Respond([]byte{1, 2, 3}); rs != nil {
		t.Error("garbage probe elicited a response")
	}
}

func TestBlowbackHeavyTail(t *testing.T) {
	in := sim(15)
	cfg := in.Config()
	var blowers, maxDups int
	const samples = 400000
	total := 0
	for ip := uint32(0); ip < samples; ip++ {
		d := in.BlowbackCount(ip, 80)
		if d > 0 {
			blowers++
			total += d
			if d > maxDups {
				maxDups = d
			}
		}
	}
	frac := float64(blowers) / samples
	if frac < cfg.BlowbackFraction*0.8 || frac > cfg.BlowbackFraction*1.2 {
		t.Errorf("blowback fraction %.4f, want ~%.3f", frac, cfg.BlowbackFraction)
	}
	if maxDups < 100 {
		t.Errorf("max duplicate train %d; want heavy tail reaching 100+", maxDups)
	}
	if maxDups > cfg.BlowbackMax {
		t.Errorf("duplicate train %d exceeds cap %d", maxDups, cfg.BlowbackMax)
	}
}

func TestBlowbackProducesDuplicateFrames(t *testing.T) {
	in := New(lossless(16))
	var ip uint32
	found := false
	for ip = 0; ip < 3_000_000; ip++ {
		if in.ServiceOpen(ip, 80) && !in.Middlebox(ip) &&
			in.AcceptsSYN(ip, 80, packet.BuildOptions(packet.LayoutMSS, 0)) &&
			in.BlowbackCount(ip, 80) >= 2 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no blowback host found")
	}
	rs := in.Respond(buildSYNProbe(ip, 80, packet.LayoutMSS))
	if len(rs) < 3 {
		t.Fatalf("blowback host sent %d frames, want >= 3", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Delay <= rs[i-1].Delay {
			t.Error("duplicate delays not increasing")
		}
	}
}

func TestICMPEcho(t *testing.T) {
	in := New(lossless(17))
	var live, dead uint32
	foundLive, foundDead := false, false
	for ip := uint32(0); ip < 1_000_000 && !(foundLive && foundDead); ip++ {
		if !foundLive && in.Live(ip) && uniform(in.hash(purposeICMP, ip, 0)) < in.Config().ICMPEchoFraction {
			live, foundLive = ip, true
		}
		if !foundDead && !in.Live(ip) {
			dead, foundDead = ip, true
		}
	}
	probe := func(dst uint32) []byte {
		buf := packet.AppendEthernet(nil, probeSrcMAC, packet.MAC{}, packet.EtherTypeIPv4)
		buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 255, Protocol: packet.ProtocolICMP, Src: 9, Dst: dst}, packet.ICMPHeaderLen)
		return packet.AppendICMPEcho(buf, packet.ICMPEchoRequest, 7, 9, nil)
	}
	rs := in.Respond(probe(live))
	if len(rs) != 1 {
		t.Fatalf("live host echo: %d responses", len(rs))
	}
	f, _ := packet.Parse(rs[0].Frame)
	if f.ICMP == nil || f.ICMP.Type != packet.ICMPEchoReply || f.ICMP.ID != 7 || f.ICMP.Seq != 9 {
		t.Fatalf("bad echo reply: %+v", f.ICMP)
	}
	if rs := in.Respond(probe(dead)); len(rs) != 0 {
		t.Error("dead host replied to ping")
	}
}

func TestUDPResponses(t *testing.T) {
	in := New(lossless(18))
	probe := func(dst uint32, port uint16) []byte {
		payload := []byte("probe")
		buf := packet.AppendEthernet(nil, probeSrcMAC, packet.MAC{}, packet.EtherTypeIPv4)
		buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 255, Protocol: packet.ProtocolUDP, Src: 9, Dst: dst}, packet.UDPHeaderLen+len(payload))
		return packet.AppendUDP(buf, 44444, port, 9, dst, payload)
	}
	var openIP, unreachIP uint32
	foundOpen, foundUnreach := false, false
	for ip := uint32(0); ip < 3_000_000 && !(foundOpen && foundUnreach); ip++ {
		if !foundOpen && in.UDPServiceOpen(ip, 53) {
			openIP, foundOpen = ip, true
		}
		if !foundUnreach && in.Live(ip) && !in.UDPServiceOpen(ip, 53) &&
			uniform(in.hash(purposeUDP+8, ip, 53)) < in.Config().UDPUnreachFraction {
			unreachIP, foundUnreach = ip, true
		}
	}
	if !foundOpen || !foundUnreach {
		t.Fatal("could not find UDP test hosts")
	}
	rs := in.Respond(probe(openIP, 53))
	if len(rs) != 1 {
		t.Fatalf("udp open: %d responses", len(rs))
	}
	f, _ := packet.Parse(rs[0].Frame)
	if f.UDP == nil || f.UDP.SrcPort != 53 {
		t.Fatalf("expected UDP reply, got %+v", f)
	}
	rs = in.Respond(probe(unreachIP, 53))
	if len(rs) != 1 {
		t.Fatalf("udp closed: %d responses", len(rs))
	}
	f, err := packet.Parse(rs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.ICMP == nil || f.ICMP.Type != packet.ICMPDestUnreach || f.ICMP.Code != 3 {
		t.Fatalf("expected ICMP port unreachable, got %+v", f.ICMP)
	}
}

func TestTransientLossIndependentAcrossAttempts(t *testing.T) {
	// Loss has two components: fast-varying independent loss and
	// correlated per-path outages. Across a population of responsive
	// hosts, the aggregate single-probe miss rate should land near the
	// 2.7% Wan et al. figure; per host, repeats on a clean path rarely
	// miss while a bad path misses most attempts.
	in := sim(19)
	const vantage = 0xC0000201
	opts := packet.BuildOptions(packet.LayoutMSS, 0)
	var probes, misses int
	var badHost, cleanHost uint32
	foundBad, foundClean := false, false
	for ip := uint32(0); ip < 30_000_000 && probes < 20000; ip += 7 {
		if !in.ExpectedSYNACK(ip, 80, opts) {
			continue
		}
		probes++
		lost := in.PathBad(vantage, ip) && in.LossDrawAt(in.Config().PathBadLossProb)
		if !lost {
			lost = in.LossDraw() || in.LossDraw()
		}
		if lost {
			misses++
		}
		if !foundBad && in.PathBad(vantage, ip) {
			badHost, foundBad = ip, true
		}
		if !foundClean && !in.PathBad(vantage, ip) {
			cleanHost, foundClean = ip, true
		}
	}
	if probes < 5000 {
		t.Fatalf("only %d responsive hosts sampled", probes)
	}
	missRate := float64(misses) / float64(probes)
	if missRate < 0.018 || missRate > 0.038 {
		t.Errorf("aggregate single-probe miss rate %.4f, want ~0.027", missRate)
	}
	if !foundBad || !foundClean {
		t.Fatal("did not sample both path classes")
	}
	// Path decisions are stable for the window: retries from the same
	// vantage keep hitting the bad path.
	if !in.PathBad(vantage, badHost) || in.PathBad(vantage, cleanHost) {
		t.Error("PathBad not stable")
	}
	// A different vantage draws an independent path decision; over many
	// bad-path hosts most are clean from elsewhere.
	const vantage2 = 0xC6336401
	badBoth, badA := 0, 0
	for ip := uint32(0); ip < 10_000_000; ip += 251 {
		if in.PathBad(vantage, ip) {
			badA++
			if in.PathBad(vantage2, ip) {
				badBoth++
			}
		}
	}
	if badA == 0 {
		t.Fatal("no bad paths sampled")
	}
	if frac := float64(badBoth) / float64(badA); frac > 0.10 {
		t.Errorf("%.3f of bad paths bad from both vantages; should be ~PathBadFraction", frac)
	}
}

func TestBannerStableAndProtocolConsistent(t *testing.T) {
	in := New(lossless(20))
	var ip uint32
	for ; ; ip++ {
		if in.ServiceOpen(ip, 80) && in.ServiceProtocol(ip, 80) == ProtoHTTP {
			break
		}
	}
	b1, b2 := in.Banner(ip, 80), in.Banner(ip, 80)
	if b1 == "" || b1 != b2 {
		t.Error("banner not stable")
	}
	if !strings.HasPrefix(b1, "HTTP/1.1") {
		t.Errorf("HTTP banner %q", b1)
	}
	// Closed port has no banner.
	var closed uint32
	for ; ; closed++ {
		if !in.ServiceOpen(closed, 80) {
			break
		}
	}
	if in.Banner(closed, 80) != "" {
		t.Error("closed port has banner")
	}
}

func TestRTTBounds(t *testing.T) {
	in := sim(21)
	cfg := in.Config()
	for ip := uint32(0); ip < 10000; ip++ {
		rtt := in.RTT(ip)
		if rtt < cfg.RTTMin || rtt > cfg.RTTMax {
			t.Fatalf("RTT %v outside [%v, %v]", rtt, cfg.RTTMin, cfg.RTTMax)
		}
	}
	if in.RTT(1) != in.RTT(1) {
		t.Error("RTT not stable per host")
	}
}

func TestLinkDelivery(t *testing.T) {
	in := New(lossless(22))
	link := NewLink(in, 1024, 0) // deliver immediately
	defer link.Close()
	responses := 0
	probes := 0
	for ip := uint32(0); ip < 30000; ip++ {
		if !in.ExpectedSYNACK(ip, 80, packet.BuildOptions(packet.LayoutMSS, 0)) {
			continue
		}
		probes++
		link.Send(buildSYNProbe(ip, 80, packet.LayoutMSS))
	drain:
		for {
			select {
			case <-link.Recv():
				responses++
			default:
				break drain
			}
		}
		if probes >= 200 {
			break
		}
	}
	if responses < probes {
		t.Errorf("got %d responses for %d hits (lossless, immediate)", responses, probes)
	}
	sent, rcvd, dropped := link.Stats()
	if sent == 0 || rcvd == 0 {
		t.Error("stats not counting")
	}
	_ = dropped
}

func TestLinkScaledDelays(t *testing.T) {
	in := New(lossless(23))
	link := NewLink(in, 1024, 1e-4) // 100ms RTT -> 10us
	defer link.Close()
	var ip uint32
	for ; ; ip++ {
		if in.ExpectedSYNACK(ip, 443, packet.BuildOptions(packet.LayoutMSS, 0)) {
			break
		}
	}
	link.Send(buildSYNProbe(ip, 443, packet.LayoutMSS))
	select {
	case <-link.Recv():
	case <-time.After(2 * time.Second):
		t.Fatal("scaled delivery never arrived")
	}
}

func TestLinkDropsWhenFull(t *testing.T) {
	in := New(lossless(24))
	link := NewLink(in, 1, 0)
	defer link.Close()
	sent := 0
	for ip := uint32(0); sent < 50; ip++ {
		if in.ExpectedSYNACK(ip, 80, packet.BuildOptions(packet.LayoutMSS, 0)) {
			link.Send(buildSYNProbe(ip, 80, packet.LayoutMSS))
			sent++
		}
	}
	_, _, dropped := link.Stats()
	if dropped == 0 {
		t.Error("full 1-slot ring never dropped")
	}
}

func TestLinkCloseStopsDelivery(t *testing.T) {
	in := New(lossless(25))
	var ip uint32
	for ; ; ip++ {
		if in.ExpectedSYNACK(ip, 80, packet.BuildOptions(packet.LayoutMSS, 0)) && in.BlowbackCount(ip, 80) == 0 {
			break
		}
	}
	// Scale the host's RTT to 50ms of wall time, so the response is
	// scheduled before Close and fires after it.
	link := NewLink(in, 8, float64(50*time.Millisecond)/float64(in.RTT(ip)))
	drainPool()
	marker := make([]byte, frameBufCap)
	PutFrame(marker) // the response is built into this buffer
	link.Send(buildSYNProbe(ip, 80, packet.LayoutMSS))
	link.Close()
	link.Close() // a second Close is harmless
	link.Drain()
	sent, received, _ := link.Stats()
	if sent != 1 || received != 0 {
		t.Errorf("sent = %d, received = %d; want 1, 0", sent, received)
	}
	select {
	case f := <-link.Recv():
		t.Fatalf("closed link delivered a %d-byte frame", len(f))
	default:
	}
	recycled := false
	for len(framePool) > 0 {
		if b := <-framePool; &b[:1][0] == &marker[0] {
			recycled = true
		}
	}
	if !recycled {
		t.Error("the undelivered response did not go back to the frame pool")
	}
}

func BenchmarkServiceOpen(b *testing.B) {
	in := sim(31)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = in.ServiceOpen(uint32(i), 80)
	}
	benchBool = sink
}

var benchBool bool

func TestICMPRateLimiting(t *testing.T) {
	cfg := lossless(26)
	cfg.ICMPRateLimitFraction = 1.0 // every host rate limits
	cfg.ICMPRateLimit = 3
	in := New(cfg)
	var ip uint32
	for ; ; ip++ {
		if in.Live(ip) && uniform(in.hash(purposeICMP, ip, 0)) < cfg.ICMPEchoFraction {
			break
		}
	}
	probe := func() []byte {
		buf := packet.AppendEthernet(nil, probeSrcMAC, packet.MAC{}, packet.EtherTypeIPv4)
		buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 255, Protocol: packet.ProtocolICMP, Src: 9, Dst: ip}, packet.ICMPHeaderLen)
		return packet.AppendICMPEcho(buf, packet.ICMPEchoRequest, 7, 9, nil)
	}
	replies := 0
	for i := 0; i < 10; i++ {
		if len(in.Respond(probe())) > 0 {
			replies++
		}
	}
	if replies != 3 {
		t.Errorf("rate-limited host replied %d times, want 3", replies)
	}
}

func TestSYNACKProbeGetsRSTFromLiveHost(t *testing.T) {
	in := New(lossless(27))
	var live uint32
	for ; ; live++ {
		if in.Live(live) && uniform(in.hash(purposeRST+8, live, 80)) < in.Config().SYNACKRSTFraction {
			break
		}
	}
	probe := func(dst uint32) []byte {
		buf := packet.AppendEthernet(nil, probeSrcMAC, packet.MAC{}, packet.EtherTypeIPv4)
		buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 255, Protocol: packet.ProtocolTCP, Src: 9, Dst: dst}, packet.TCPHeaderLen)
		buf, _ = packet.AppendTCP(buf, packet.TCP{
			SrcPort: 54321, DstPort: 80, Seq: 100, Ack: 0xABCDEF01,
			Flags: packet.FlagSYN | packet.FlagACK,
		}, 9, dst, nil)
		return buf
	}
	rs := in.Respond(probe(live))
	if len(rs) != 1 {
		t.Fatalf("live host: %d responses to SYN-ACK, want 1", len(rs))
	}
	f, err := packet.Parse(rs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.TCP == nil || f.TCP.Flags != packet.FlagRST {
		t.Fatalf("expected bare RST, got %+v", f.TCP)
	}
	if f.TCP.Seq != 0xABCDEF01 {
		t.Errorf("RST seq %x, want the probe's ack", f.TCP.Seq)
	}
	var dead uint32
	for ; ; dead++ {
		if !in.Live(dead) {
			break
		}
	}
	if rs := in.Respond(probe(dead)); len(rs) != 0 {
		t.Error("dead host answered a SYN-ACK probe")
	}
}

func TestProtocolStrings(t *testing.T) {
	want := map[Protocol]string{
		ProtoNone: "none", ProtoHTTP: "http", ProtoTLS: "tls",
		ProtoSSH: "ssh", ProtoTelnet: "telnet", ProtoMikrotikAPI: "mikrotik",
		Protocol(99): "unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Protocol(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestServiceProtocolDistribution(t *testing.T) {
	// Assigned ports host their assigned protocols; the tail is web-heavy.
	in := New(lossless(28))
	counts := map[uint16]map[Protocol]int{}
	ports := []uint16{80, 443, 22, 23, 8728, 8080, 12345}
	for _, p := range ports {
		counts[p] = map[Protocol]int{}
	}
	for ip := uint32(0); ip < 3_000_000; ip += 2 {
		for _, p := range ports {
			if in.ServiceOpen(ip, p) {
				counts[p][in.ServiceProtocol(ip, p)]++
			}
		}
	}
	check := func(port uint16, proto Protocol) {
		total := 0
		for _, n := range counts[port] {
			total += n
		}
		if total == 0 {
			t.Fatalf("no services sampled on port %d", port)
		}
		if frac := float64(counts[port][proto]) / float64(total); frac < 0.5 {
			t.Errorf("port %d: %v fraction %.2f, want majority", port, proto, frac)
		}
	}
	check(80, ProtoHTTP)
	check(443, ProtoTLS)
	check(22, ProtoSSH)
	check(23, ProtoTelnet)
	check(8728, ProtoMikrotikAPI)
	check(8080, ProtoHTTP)
	// Tail port: mostly HTTP+TLS combined.
	tailTotal, tailWeb := 0, 0
	for proto, n := range counts[12345] {
		tailTotal += n
		if proto == ProtoHTTP || proto == ProtoTLS {
			tailWeb += n
		}
	}
	if tailTotal > 0 && float64(tailWeb)/float64(tailTotal) < 0.7 {
		t.Errorf("tail web fraction %.2f, want >= 0.7 (LZR)", float64(tailWeb)/float64(tailTotal))
	}
}

func TestBannersPerProtocol(t *testing.T) {
	in := New(lossless(29))
	wantPrefix := map[Protocol]string{
		ProtoHTTP:        "HTTP/1.1",
		ProtoTLS:         "TLSv1.3",
		ProtoSSH:         "SSH-2.0",
		ProtoTelnet:      "login:",
		ProtoMikrotikAPI: "!done",
	}
	found := map[Protocol]bool{}
	ports := []uint16{80, 443, 22, 23, 8728}
	for ip := uint32(0); ip < 3_000_000 && len(found) < len(wantPrefix); ip++ {
		for _, p := range ports {
			if !in.ServiceOpen(ip, p) {
				continue
			}
			proto := in.ServiceProtocol(ip, p)
			prefix, care := wantPrefix[proto]
			if !care || found[proto] {
				continue
			}
			b := in.Banner(ip, p)
			if !strings.HasPrefix(b, prefix) {
				t.Errorf("%v banner %q, want prefix %q", proto, b, prefix)
			}
			found[proto] = true
		}
	}
	if len(found) < len(wantPrefix) {
		t.Errorf("only found banners for %d protocols", len(found))
	}
	// ProtoNone services have no banner.
	for ip := uint32(0); ip < 3_000_000; ip++ {
		if in.ServiceOpen(ip, 80) && in.ServiceProtocol(ip, 80) == ProtoNone {
			if in.Banner(ip, 80) != "" {
				t.Error("bannerless service produced a banner")
			}
			break
		}
	}
}

func TestLossDraw(t *testing.T) {
	in := sim(30)
	losses := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if in.LossDraw() {
			losses++
		}
	}
	rate := float64(losses) / n
	want := in.Config().ProbeLoss
	if rate < want*0.8 || rate > want*1.2 {
		t.Errorf("loss rate %.4f, want ~%.4f", rate, want)
	}
	noLoss := New(lossless(30))
	if noLoss.LossDraw() {
		t.Error("lossless config drew a loss")
	}
}

func TestRTTZeroSpan(t *testing.T) {
	cfg := lossless(31)
	cfg.RTTMin, cfg.RTTMax = 50*time.Millisecond, 50*time.Millisecond
	in := New(cfg)
	if in.RTT(123) != 50*time.Millisecond {
		t.Error("degenerate RTT span should return RTTMin")
	}
}

func TestBlowbackDefaults(t *testing.T) {
	cfg := lossless(32)
	cfg.BlowbackAlpha = 0 // zero alpha falls back to 1.2
	cfg.BlowbackFraction = 1
	in := New(cfg)
	if in.BlowbackCount(1, 80) < 1 {
		t.Error("blowback host with zero alpha returned no duplicates")
	}
}

func TestNewLinkDefaultBuffer(t *testing.T) {
	in := New(lossless(33))
	link := NewLink(in, 0, 0) // zero buffer takes the default
	defer link.Close()
	if cap(link.recv) == 0 {
		t.Error("default buffer not applied")
	}
}

func TestV6HostModel(t *testing.T) {
	in := New(lossless(34))
	mk := func(last byte) [16]byte {
		var a [16]byte
		a[0], a[1], a[15] = 0x20, 0x01, last
		return a
	}
	// Determinism and liveness density.
	live := 0
	const n = 20000
	for i := 0; i < n; i++ {
		var a [16]byte
		a[0], a[1] = 0x20, 0x01
		a[12], a[13], a[14], a[15] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		if in.Live6(a) != in.Live6(a) {
			t.Fatal("Live6 not deterministic")
		}
		if in.Live6(a) {
			live++
		}
	}
	frac := float64(live) / n
	if frac < 0.3 || frac > 0.4 {
		t.Errorf("v6 hitlist liveness %.3f, want ~0.35", frac)
	}
	// Services require liveness.
	for i := byte(0); i < 200; i++ {
		a := mk(i)
		if !in.Live6(a) && in.ServiceOpen6(a, 443) {
			t.Fatal("dead v6 host has a service")
		}
	}
}

func TestRespond6RejectsGarbage(t *testing.T) {
	in := New(lossless(35))
	if in.Respond6([]byte{1, 2, 3}) != nil {
		t.Error("garbage v6 frame elicited a response")
	}
	// A v4 frame routed through Respond must not hit the v6 path and
	// vice versa; Respond dispatches by ethertype.
	v4 := buildSYNProbe(1, 80, packet.LayoutMSS)
	if in.Respond6(v4) != nil {
		t.Error("v4 frame answered by v6 responder")
	}
}

// recordedDelays collects DelayRecorder calls for assertions.
type recordedDelays struct {
	ds []time.Duration
}

func (r *recordedDelays) Record(d time.Duration) { r.ds = append(r.ds, d) }

func TestLinkDelayRecorder(t *testing.T) {
	in := New(lossless(29))
	link := NewLink(in, 1024, 0)
	defer link.Close()
	rec := &recordedDelays{}
	link.SetDelayRecorder(rec)
	var ip uint32
	for ; ; ip++ {
		if in.ExpectedSYNACK(ip, 80, packet.BuildOptions(packet.LayoutMSS, 0)) {
			break
		}
	}
	link.Send(buildSYNProbe(ip, 80, packet.LayoutMSS))
	if len(rec.ds) == 0 {
		t.Fatal("delay recorder never called")
	}
	// The recorded delay is the UNSCALED simulated value (timeScale 0
	// still reports the modeled RTT).
	if rec.ds[0] != in.RTT(ip) {
		t.Errorf("recorded delay %v, want RTT %v", rec.ds[0], in.RTT(ip))
	}
}
