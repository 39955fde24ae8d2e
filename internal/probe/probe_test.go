package probe

import (
	"testing"

	"zmapgo/internal/netsim"
	"zmapgo/internal/packet"
	"zmapgo/internal/validate"
)

// mustProbe builds a probe frame, failing the test on a builder error
// (valid layouts never produce one).
func mustProbe(t testing.TB, m Module, buf []byte, ctx *Context, ip uint32, port uint16) []byte {
	t.Helper()
	frame, err := m.MakeProbe(buf, ctx, ip, port)
	if err != nil {
		t.Fatalf("%s.MakeProbe: %v", m.Name(), err)
	}
	return frame
}

func testContext() *Context {
	var key [validate.KeySize]byte
	key[0] = 42
	return &Context{
		SrcIP:           0xC0000201,
		SrcMAC:          packet.MAC{2, 0, 0, 0, 0, 1},
		GwMAC:           packet.MAC{2, 0, 0, 0, 0, 2},
		Validator:       validate.New(key),
		SourcePortBase:  32768,
		SourcePortCount: 64,
		Options:         packet.LayoutMSS,
		TTL:             255,
		TimestampValue:  7,
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"icmp_echoscan", "tcp_synackscan", "tcp_synscan", "udp"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	for _, n := range want {
		m, err := Lookup(n)
		if err != nil || m.Name() != n {
			t.Errorf("Lookup(%q) = %v, %v", n, m, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup of unknown module succeeded")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(SYNScan{})
}

func TestSYNProbeWellFormed(t *testing.T) {
	ctx := testContext()
	frame := mustProbe(t, SYNScan{}, nil, ctx, 0x08080808, 443)
	f, err := packet.Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.TCP == nil || f.TCP.Flags != packet.FlagSYN {
		t.Fatal("not a SYN")
	}
	if f.IP.Src != ctx.SrcIP || f.IP.Dst != 0x08080808 || f.TCP.DstPort != 443 {
		t.Error("addressing wrong")
	}
	if f.IP.ID != packet.ZMapIPID {
		t.Errorf("static IP ID mode: id = %d, want %d", f.IP.ID, packet.ZMapIPID)
	}
	if f.TCP.Seq != ctx.word(0x08080808, 443).Seq() {
		t.Error("seq not derived from validator")
	}
	sport := f.TCP.SrcPort
	if sport < 32768 || sport >= 32768+64 {
		t.Errorf("source port %d outside range", sport)
	}
	if len(frame) != (SYNScan{}).ProbeLen(ctx) {
		t.Errorf("ProbeLen %d != actual %d", (SYNScan{}).ProbeLen(ctx), len(frame))
	}
	if !packet.VerifyIPv4Checksum(frame) {
		t.Error("bad IP checksum")
	}
}

func TestSYNProbeRandomIPID(t *testing.T) {
	ctx := testContext()
	ctx.RandomIPID = true
	f1, _ := packet.Parse(mustProbe(t, SYNScan{}, nil, ctx, 1, 80))
	f2, _ := packet.Parse(mustProbe(t, SYNScan{}, nil, ctx, 2, 80))
	f1b, _ := packet.Parse(mustProbe(t, SYNScan{}, nil, ctx, 1, 80))
	if f1.IP.ID == packet.ZMapIPID && f2.IP.ID == packet.ZMapIPID {
		t.Error("random IP ID mode still produced static IDs")
	}
	if f1.IP.ID != f1b.IP.ID {
		t.Error("IP ID should be stable per flow (deterministic retries)")
	}
	if f1.IP.ID == f2.IP.ID {
		t.Error("distinct flows got identical 'random' IDs (weak but suspicious)")
	}
}

// respondVia runs a probe through the simulated Internet and returns the
// first response frame, or nil.
func respondVia(t *testing.T, in *netsim.Internet, frame []byte) *packet.Frame {
	t.Helper()
	rs := in.Respond(frame)
	if len(rs) == 0 {
		return nil
	}
	f, err := packet.Parse(rs[0].Frame)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func losslessSim(seed uint64) *netsim.Internet {
	cfg := netsim.DefaultConfig(seed)
	cfg.ProbeLoss, cfg.ResponseLoss, cfg.PathBadFraction = 0, 0, 0
	return netsim.New(cfg)
}

func TestSYNClassifyAgainstSim(t *testing.T) {
	ctx := testContext()
	in := losslessSim(50)
	mod := SYNScan{}
	opts := packet.BuildOptions(ctx.Options, ctx.TimestampValue)
	var synacks, rsts int
	for ip := uint32(0); ip < 300000 && (synacks == 0 || rsts == 0); ip++ {
		frame := mustProbe(t, mod, nil, ctx, ip, 80)
		resp := respondVia(t, in, frame)
		if resp == nil {
			continue
		}
		r, ok := mod.Classify(ctx, resp)
		if !ok {
			t.Fatalf("sim response for ip %d failed classification", ip)
		}
		if r.IP != ip || r.Port != 80 {
			t.Fatalf("classified (%d, %d), want (%d, 80)", r.IP, r.Port, ip)
		}
		switch r.Class {
		case "synack":
			if !r.Success {
				t.Error("synack must be success")
			}
			if !in.ExpectedSYNACK(ip, 80, opts) {
				t.Error("synack from host that should not have answered")
			}
			synacks++
		case "rst":
			if r.Success {
				t.Error("rst must not be success")
			}
			rsts++
		default:
			t.Fatalf("unexpected class %q", r.Class)
		}
	}
	if synacks == 0 || rsts == 0 {
		t.Fatalf("wanted both classes: synacks=%d rsts=%d", synacks, rsts)
	}
}

func TestSYNClassifyRejectsForgeries(t *testing.T) {
	ctx := testContext()
	mod := SYNScan{}
	// Forge a SYN-ACK with a wrong ack number.
	buf := packet.AppendEthernet(nil, packet.MAC{1}, ctx.SrcMAC, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 64, Protocol: packet.ProtocolTCP, Src: 99, Dst: ctx.SrcIP}, packet.TCPHeaderLen)
	buf, _ = packet.AppendTCP(buf, packet.TCP{
		SrcPort: 80,
		DstPort: ctx.sourcePort(ctx.word(99, 80)),
		Ack:     12345, // not validator-derived
		Flags:   packet.FlagSYN | packet.FlagACK,
	}, 99, ctx.SrcIP, nil)
	f, _ := packet.Parse(buf)
	if _, ok := mod.Classify(ctx, f); ok {
		t.Error("forged ack accepted")
	}
	// Correct ack but wrong destination (not our scanner).
	seq := ctx.word(99, 80).Seq()
	buf2 := packet.AppendEthernet(nil, packet.MAC{1}, ctx.SrcMAC, packet.EtherTypeIPv4)
	buf2 = packet.AppendIPv4(buf2, packet.IPv4{TTL: 64, Protocol: packet.ProtocolTCP, Src: 99, Dst: 12345}, packet.TCPHeaderLen)
	buf2, _ = packet.AppendTCP(buf2, packet.TCP{
		SrcPort: 80, DstPort: 32768, Ack: seq + 1, Flags: packet.FlagSYN | packet.FlagACK,
	}, 99, 12345, nil)
	f2, _ := packet.Parse(buf2)
	if _, ok := mod.Classify(ctx, f2); ok {
		t.Error("response to another scanner accepted")
	}
	// Correct ack but wrong dst port (not our source-port range slot).
	buf3 := packet.AppendEthernet(nil, packet.MAC{1}, ctx.SrcMAC, packet.EtherTypeIPv4)
	buf3 = packet.AppendIPv4(buf3, packet.IPv4{TTL: 64, Protocol: packet.ProtocolTCP, Src: 99, Dst: ctx.SrcIP}, packet.TCPHeaderLen)
	badPort := ctx.sourcePort(ctx.word(99, 80)) + 1
	buf3, _ = packet.AppendTCP(buf3, packet.TCP{
		SrcPort: 80, DstPort: badPort, Ack: seq + 1, Flags: packet.FlagSYN | packet.FlagACK,
	}, 99, ctx.SrcIP, nil)
	f3, _ := packet.Parse(buf3)
	if _, ok := mod.Classify(ctx, f3); ok {
		t.Error("wrong source-port slot accepted")
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	ctx := testContext()
	in := losslessSim(51)
	mod := ICMPEchoScan{}
	replies := 0
	for ip := uint32(0); ip < 2000 && replies == 0; ip++ {
		frame := mustProbe(t, mod, nil, ctx, ip, 0)
		if len(frame) != mod.ProbeLen(ctx) {
			t.Fatalf("ProbeLen mismatch: %d != %d", len(frame), mod.ProbeLen(ctx))
		}
		resp := respondVia(t, in, frame)
		if resp == nil {
			continue
		}
		r, ok := mod.Classify(ctx, resp)
		if !ok {
			t.Fatal("valid echo reply rejected")
		}
		if r.Class != "echoreply" || !r.Success || r.IP != ip {
			t.Fatalf("bad result %+v", r)
		}
		replies++
	}
	if replies == 0 {
		t.Fatal("no echo replies in 2000 hosts at 80% echo fraction")
	}
}

func TestICMPClassifyRejectsWrongID(t *testing.T) {
	ctx := testContext()
	buf := packet.AppendEthernet(nil, packet.MAC{1}, ctx.SrcMAC, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 64, Protocol: packet.ProtocolICMP, Src: 5, Dst: ctx.SrcIP}, packet.ICMPHeaderLen)
	buf = packet.AppendICMPEcho(buf, packet.ICMPEchoReply, 1, 1, nil)
	f, _ := packet.Parse(buf)
	if _, ok := (ICMPEchoScan{}).Classify(ctx, f); ok {
		t.Error("echo reply with wrong id/seq accepted")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	ctx := testContext()
	in := losslessSim(52)
	mod := UDPScan{}
	var udp, unreach int
	for ip := uint32(0); ip < 3_000_000 && (udp == 0 || unreach == 0); ip++ {
		frame := mustProbe(t, mod, nil, ctx, ip, 53)
		resp := respondVia(t, in, frame)
		if resp == nil {
			continue
		}
		r, ok := mod.Classify(ctx, resp)
		if !ok {
			t.Fatal("sim UDP response rejected")
		}
		if r.IP != ip || r.Port != 53 {
			t.Fatalf("classified (%d,%d), want (%d,53)", r.IP, r.Port, ip)
		}
		switch r.Class {
		case "udp":
			if !r.Success {
				t.Error("udp reply must be success")
			}
			udp++
		case "port-unreach":
			if r.Success {
				t.Error("unreach must not be success")
			}
			unreach++
		}
	}
	if udp == 0 || unreach == 0 {
		t.Fatalf("wanted both udp and unreach: %d, %d", udp, unreach)
	}
}

func TestProbeBuildersAppendInPlace(t *testing.T) {
	// Builders must append to the provided buffer without reallocating
	// when capacity suffices — the hot-path contract.
	ctx := testContext()
	buf := make([]byte, 0, 256)
	out := mustProbe(t, SYNScan{}, buf, ctx, 1, 80)
	if &out[0] != &buf[0:1][0] {
		t.Error("SYN builder reallocated despite capacity")
	}
}

func BenchmarkSYNMakeProbe(b *testing.B) {
	ctx := testContext()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = SYNScan{}.MakeProbe(buf[:0], ctx, uint32(i), 80)
	}
	benchLen = len(buf)
}

func BenchmarkSYNClassify(b *testing.B) {
	ctx := testContext()
	in := losslessSim(53)
	var frame []byte
	for ip := uint32(0); ; ip++ {
		rs := in.Respond(mustProbe(b, SYNScan{}, nil, ctx, ip, 80))
		if len(rs) > 0 {
			frame = rs[0].Frame
			break
		}
	}
	f, _ := packet.Parse(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok := SYNScan{}.Classify(ctx, f)
		benchBool = ok
	}
}

var (
	benchLen  int
	benchBool bool
)

func TestSYNACKScanRoundTrip(t *testing.T) {
	ctx := testContext()
	in := losslessSim(54)
	mod := SYNACKScan{}
	rsts := 0
	for ip := uint32(0); ip < 3000 && rsts == 0; ip++ {
		frame := mustProbe(t, mod, nil, ctx, ip, 80)
		f, err := packet.Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if f.TCP.Flags != packet.FlagSYN|packet.FlagACK {
			t.Fatal("probe is not a SYN-ACK")
		}
		if len(frame) != mod.ProbeLen(ctx) {
			t.Fatalf("ProbeLen %d != %d", mod.ProbeLen(ctx), len(frame))
		}
		resp := respondVia(t, in, frame)
		if resp == nil {
			continue
		}
		r, ok := mod.Classify(ctx, resp)
		if !ok {
			t.Fatal("valid backscatter RST rejected")
		}
		if r.Class != "rst" || !r.Success || r.IP != ip {
			t.Fatalf("bad result %+v", r)
		}
		if !in.Live(ip) {
			t.Fatal("RST from a dead host")
		}
		rsts++
	}
	if rsts == 0 {
		t.Fatal("no backscatter RSTs in 3000 hosts")
	}
}

func TestSYNACKScanMiddleboxSilent(t *testing.T) {
	// Middleboxes answer SYNs statelessly but not unsolicited SYN-ACKs,
	// so synackscan sees through them.
	ctx := testContext()
	in := losslessSim(55)
	var ip uint32
	found := false
	for ip = 0; ip < 50_000_000; ip += 65536 {
		if in.Middlebox(ip) && !in.Live(ip) {
			found = true
			break
		}
	}
	if !found {
		t.Skip("no dead middlebox address sampled")
	}
	if resp := respondVia(t, in, mustProbe(t, SYNACKScan{}, nil, ctx, ip, 80)); resp != nil {
		t.Error("middlebox answered a SYN-ACK probe")
	}
	if resp := respondVia(t, in, mustProbe(t, SYNScan{}, nil, ctx, ip, 80)); resp == nil {
		t.Error("middlebox should answer the plain SYN")
	}
}

func TestSYNACKScanRejectsForgedSeq(t *testing.T) {
	ctx := testContext()
	buf := packet.AppendEthernet(nil, packet.MAC{1}, ctx.SrcMAC, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 64, Protocol: packet.ProtocolTCP, Src: 9, Dst: ctx.SrcIP}, packet.TCPHeaderLen)
	buf, _ = packet.AppendTCP(buf, packet.TCP{
		SrcPort: 80,
		DstPort: ctx.sourcePort(ctx.word(9, 80)),
		Seq:     12345, // not the derived ack
		Flags:   packet.FlagRST,
	}, 9, ctx.SrcIP, nil)
	f, _ := packet.Parse(buf)
	if _, ok := (SYNACKScan{}).Classify(ctx, f); ok {
		t.Error("forged RST accepted")
	}
}
