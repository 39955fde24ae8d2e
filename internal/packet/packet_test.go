package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

var (
	srcMAC = MAC{0x02, 0, 0, 0, 0, 1}
	dstMAC = MAC{0x02, 0, 0, 0, 0, 2}
)

func buildSYN(t *testing.T, layout OptionLayout) []byte {
	t.Helper()
	opts := BuildOptions(layout, 0xDEADBEEF)
	buf := AppendEthernet(nil, srcMAC, dstMAC, EtherTypeIPv4)
	buf = AppendIPv4(buf, IPv4{
		ID: ZMapIPID, DontFrag: true, TTL: DefaultProbeTTL, Protocol: ProtocolTCP,
		Src: 0x01020304, Dst: 0x05060708,
	}, TCPHeaderLen+len(opts))
	buf, err := AppendTCP(buf, TCP{
		SrcPort: 54321, DstPort: 80, Seq: 0xCAFEBABE,
		Flags: FlagSYN, Window: 65535, Options: opts,
	}, 0x01020304, 0x05060708, nil)
	if err != nil {
		t.Fatalf("AppendTCP: %v", err)
	}
	return buf
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != 0x220d {
		t.Errorf("Checksum = %04x, want 220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd final byte is padded with zero.
	if Checksum([]byte{0xFF}, 0) != ^uint16(0xFF00) {
		t.Error("odd-length checksum wrong")
	}
}

func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 != 0 {
			data = append(data, 0)
		}
		ck := Checksum(data, 0)
		withCk := append([]byte{}, data...)
		withCk = binary.BigEndian.AppendUint16(withCk, ck)
		return Checksum(withCk, 0) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSYNRoundTrip(t *testing.T) {
	for _, layout := range AllOptionLayouts() {
		frame := buildSYN(t, layout)
		f, err := Parse(frame)
		if err != nil {
			t.Fatalf("%v: Parse: %v", layout, err)
		}
		if f.EthSrc != srcMAC || f.EthDst != dstMAC {
			t.Errorf("%v: MAC mismatch", layout)
		}
		if f.IP.Src != 0x01020304 || f.IP.Dst != 0x05060708 {
			t.Errorf("%v: IP mismatch", layout)
		}
		if f.IP.ID != ZMapIPID || !f.IP.DontFrag || f.IP.TTL != DefaultProbeTTL {
			t.Errorf("%v: IP fields mismatch: %+v", layout, f.IP)
		}
		if f.TCP == nil {
			t.Fatalf("%v: no TCP layer", layout)
		}
		if f.TCP.SrcPort != 54321 || f.TCP.DstPort != 80 || f.TCP.Seq != 0xCAFEBABE {
			t.Errorf("%v: TCP fields mismatch: %+v", layout, f.TCP)
		}
		if f.TCP.Flags != FlagSYN {
			t.Errorf("%v: flags = %02x, want SYN", layout, f.TCP.Flags)
		}
		wantOpts := BuildOptions(layout, 0xDEADBEEF)
		if !bytes.Equal(f.TCP.Options, wantOpts) {
			t.Errorf("%v: options %x, want %x", layout, f.TCP.Options, wantOpts)
		}
		if !VerifyIPv4Checksum(frame) {
			t.Errorf("%v: bad IP checksum", layout)
		}
		if len(f.Payload) != 0 {
			t.Errorf("%v: unexpected payload %d bytes", layout, len(f.Payload))
		}
	}
}

func TestTCPChecksumValid(t *testing.T) {
	frame := buildSYN(t, LayoutLinux)
	// Recompute the TCP checksum over the parsed segment; including the
	// transmitted checksum field, the sum must verify to zero.
	seg := frame[EthernetHeaderLen+IPv4HeaderLen:]
	sum := pseudoHeaderSum(0x01020304, 0x05060708, ProtocolTCP, len(seg))
	if Checksum(seg, sum) != 0 {
		t.Error("TCP checksum does not verify")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte("dns-ish probe")
	buf := AppendEthernet(nil, srcMAC, dstMAC, EtherTypeIPv4)
	buf = AppendIPv4(buf, IPv4{TTL: 64, Protocol: ProtocolUDP, Src: 1, Dst: 2}, UDPHeaderLen+len(payload))
	buf = AppendUDP(buf, 1234, 53, 1, 2, payload)
	f, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.UDP == nil || f.UDP.SrcPort != 1234 || f.UDP.DstPort != 53 {
		t.Fatalf("UDP parse mismatch: %+v", f.UDP)
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Errorf("payload %q, want %q", f.Payload, payload)
	}
	seg := buf[EthernetHeaderLen+IPv4HeaderLen:]
	sum := pseudoHeaderSum(1, 2, ProtocolUDP, len(seg))
	if Checksum(seg, sum) != 0 {
		t.Error("UDP checksum does not verify")
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4}
	buf := AppendEthernet(nil, srcMAC, dstMAC, EtherTypeIPv4)
	buf = AppendIPv4(buf, IPv4{TTL: 64, Protocol: ProtocolICMP, Src: 1, Dst: 2}, ICMPHeaderLen+len(payload))
	buf = AppendICMPEcho(buf, ICMPEchoRequest, 777, 42, payload)
	f, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.ICMP == nil || f.ICMP.Type != ICMPEchoRequest || f.ICMP.ID != 777 || f.ICMP.Seq != 42 {
		t.Fatalf("ICMP parse mismatch: %+v", f.ICMP)
	}
	if Checksum(buf[EthernetHeaderLen+IPv4HeaderLen:], 0) != 0 {
		t.Error("ICMP checksum does not verify")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	good := buildSYN(t, LayoutMSS)
	cases := map[string][]byte{
		"empty":            {},
		"short ethernet":   good[:10],
		"short ip":         good[:EthernetHeaderLen+10],
		"short tcp":        good[:EthernetHeaderLen+IPv4HeaderLen+10],
		"bad ethertype":    mutate(good, 12, 0x86),
		"ipv6 version":     mutate(good, EthernetHeaderLen, 0x65),
		"tiny ihl":         mutate(good, EthernetHeaderLen, 0x41),
		"huge total len":   mutate(good, EthernetHeaderLen+2, 0xFF),
		"fragment offset":  mutate(good, EthernetHeaderLen+7, 0x10),
		"more fragments":   mutate(good, EthernetHeaderLen+6, 0x20),
		"tcp offset small": mutate(good, EthernetHeaderLen+IPv4HeaderLen+12, 0x10),
		"tcp offset big":   mutate(good, EthernetHeaderLen+IPv4HeaderLen+12, 0xF0),
	}
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func mutate(src []byte, idx int, val byte) []byte {
	out := append([]byte{}, src...)
	out[idx] = val
	return out
}

func TestParseNeverPanics(t *testing.T) {
	// Parsers handle attacker-controlled input; random garbage and random
	// truncations/mutations of valid frames must return errors, not panic.
	rng := rand.New(rand.NewSource(99))
	good := buildSYN(t, LayoutBSD)
	for i := 0; i < 5000; i++ {
		var data []byte
		switch i % 3 {
		case 0:
			data = make([]byte, rng.Intn(120))
			rng.Read(data)
		case 1:
			data = append([]byte{}, good[:rng.Intn(len(good)+1)]...)
		case 2:
			data = append([]byte{}, good...)
			for j := 0; j < 4; j++ {
				data[rng.Intn(len(data))] = byte(rng.Intn(256))
			}
		}
		f, err := Parse(data)
		if err == nil && f == nil {
			t.Fatal("nil frame with nil error")
		}
	}
}

func TestParseUnsupportedProtocol(t *testing.T) {
	buf := AppendEthernet(nil, srcMAC, dstMAC, EtherTypeIPv4)
	buf = AppendIPv4(buf, IPv4{TTL: 64, Protocol: 47 /* GRE */, Src: 1, Dst: 2}, 0)
	if _, err := Parse(buf); err == nil {
		t.Error("GRE should be unsupported")
	}
}

func TestBuildOptionsLengths(t *testing.T) {
	wantLens := map[OptionLayout]int{
		LayoutNone:      0,
		LayoutMSS:       4,
		LayoutSACK:      4,
		LayoutTimestamp: 12,
		LayoutWScale:    4,
		LayoutOptimal:   20,
		LayoutLinux:     20,
		LayoutBSD:       24,
		LayoutWindows:   12,
	}
	for l, want := range wantLens {
		got := BuildOptions(l, 0)
		if len(got) != want {
			t.Errorf("%v: option length %d, want %d", l, len(got), want)
		}
		if len(got)%4 != 0 {
			t.Errorf("%v: option length %d not word aligned", l, len(got))
		}
	}
}

func TestBuildOptionsKinds(t *testing.T) {
	wantKinds := map[OptionLayout][]byte{
		LayoutNone:      {},
		LayoutMSS:       {OptMSS},
		LayoutSACK:      {OptSACKPerm},
		LayoutTimestamp: {OptTimestamp},
		LayoutWScale:    {OptWScale},
		LayoutOptimal:   {OptMSS, OptSACKPerm, OptTimestamp, OptWScale},
		LayoutLinux:     {OptMSS, OptSACKPerm, OptTimestamp, OptWScale},
		LayoutBSD:       {OptMSS, OptSACKPerm, OptTimestamp, OptWScale},
		LayoutWindows:   {OptMSS, OptSACKPerm, OptWScale},
	}
	for l, want := range wantKinds {
		kinds := OptionKinds(BuildOptions(l, 1))
		if len(kinds) != len(want) {
			t.Errorf("%v: kinds %v, want %v", l, kinds, want)
			continue
		}
		for _, k := range want {
			if !kinds[k] {
				t.Errorf("%v: missing option kind %d", l, k)
			}
		}
	}
}

func TestOptionKindsMalformed(t *testing.T) {
	// Truncated and zero-length options must terminate cleanly.
	cases := [][]byte{
		{OptMSS},            // kind without length
		{OptMSS, 0},         // zero length
		{OptMSS, 10, 1, 2},  // length exceeds buffer
		{OptNOP, OptNOP},    // only padding
		{OptEOL, OptMSS, 4}, // EOL stops processing
	}
	for i, opts := range cases {
		kinds := OptionKinds(opts)
		if kinds[OptMSS] {
			t.Errorf("case %d: malformed MSS accepted", i)
		}
	}
}

func TestLineRateMatchesPaper(t *testing.T) {
	// §4.3: on 1 GbE, optionless and MSS-only SYNs achieve 1.488 Mpps
	// (minimum frame), Windows layout 1.389 Mpps, Linux layout 1.276 Mpps.
	const gbe = 1e9
	cases := []struct {
		layout OptionLayout
		want   float64 // Mpps
	}{
		{LayoutNone, 1.488},
		{LayoutMSS, 1.488},
		{LayoutWindows, 1.389},
		{LayoutLinux, 1.276},
	}
	for _, c := range cases {
		got := LineRatePPS(gbe, SYNFrameLen(c.layout)) / 1e6
		if math.Abs(got-c.want) > 0.001 {
			t.Errorf("%v: %.3f Mpps, want %.3f", c.layout, got, c.want)
		}
	}
}

func TestSYNFrameLenMSSUnderEthernetMin(t *testing.T) {
	// §4.3: MSS-only probes stay under the 64-byte Ethernet minimum.
	if SYNFrameLen(LayoutMSS)+EthernetFCSLen > EthernetMinFrame {
		t.Errorf("MSS-only frame %d bytes exceeds Ethernet minimum", SYNFrameLen(LayoutMSS))
	}
	if SYNFrameLen(LayoutWindows)+EthernetFCSLen <= EthernetMinFrame {
		t.Error("Windows layout should exceed Ethernet minimum")
	}
}

func TestWireLen(t *testing.T) {
	cases := []struct{ frame, want int }{
		{54, 84}, // padded to 64 + 20 overhead
		{60, 84}, // still at minimum
		{64, 88}, // 64+4 FCS + 20
		{1514, 1538},
	}
	for _, c := range cases {
		if got := WireLen(c.frame); got != c.want {
			t.Errorf("WireLen(%d) = %d, want %d", c.frame, got, c.want)
		}
	}
}

func TestParseOptionLayout(t *testing.T) {
	for _, l := range AllOptionLayouts() {
		got, ok := ParseOptionLayout(l.String())
		if !ok || got != l {
			t.Errorf("ParseOptionLayout(%q) = %v, %v", l.String(), got, ok)
		}
	}
	if _, ok := ParseOptionLayout("nonsense"); ok {
		t.Error("nonsense layout accepted")
	}
	if OptionLayout(99).String() != "unknown" {
		t.Error("unknown layout String wrong")
	}
}

func TestAppendTCPRejectsUnalignedOptions(t *testing.T) {
	buf, err := AppendTCP([]byte{0xAA}, TCP{Options: []byte{1, 2, 3}}, 0, 0, nil)
	if !errors.Is(err, ErrBadOptions) {
		t.Errorf("AppendTCP error = %v, want ErrBadOptions", err)
	}
	if len(buf) != 1 {
		t.Errorf("buf modified on error: %d bytes", len(buf))
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String() = %q", m.String())
	}
}

// FuzzParse hammers the parser with arbitrary frames. Three invariants:
// no panic (the receive path feeds this function raw network input),
// every error stays inside the documented taxonomy — wrapping
// ErrTruncated or ErrUnsupported — so the engine's per-class fault
// counters classify every rejection, and a reused FrameScratch answers
// exactly as a fresh parse does, whatever protocol it parsed last.
func FuzzParse(f *testing.F) {
	previous := [][]byte{buildSYNForFuzz(), buildUDPReply([]byte("dns")), buildEchoReply()}
	f.Add([]byte{})
	for _, seed := range previous {
		f.Add(seed)
	}
	f.Add(buildUnreach(9, 0x01020304, 0x05060708, 54321, 53))
	syn := buildSYNForFuzz()
	// Truncations at every structural boundary: mid-Ethernet, mid-IP,
	// mid-TCP, mid-options.
	for _, n := range []int{1, 13, 14, 20, 33, 34, 40, 53, len(syn) - 1} {
		if n > 0 && n < len(syn) {
			f.Add(syn[:n])
		}
	}
	// Bit corruption in each header region.
	for _, i := range []int{12, 14, 23, 34, 47} {
		c := append([]byte(nil), syn...)
		c[i] ^= 0xFF
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Parse(data)
		switch {
		case err != nil:
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrUnsupported) {
				t.Fatalf("Parse error outside taxonomy: %v", err)
			}
			if frame != nil {
				t.Fatal("non-nil frame alongside error")
			}
		case frame == nil:
			t.Fatal("nil frame, nil error")
		case frame.TCP == nil && frame.UDP == nil && frame.ICMP == nil:
			t.Fatal("parsed frame carries no transport header")
		}
		// Checksum verification must tolerate anything the parser does.
		VerifyChecksums(data)
		// Reuse: no header of the previous frame (a TCP pointer under a
		// UDP frame, say) may survive into this one.
		for _, prev := range previous {
			var sc FrameScratch
			if _, perr := sc.Parse(prev); perr != nil {
				t.Fatal(perr)
			}
			got, gotErr := sc.Parse(data)
			if errClass(gotErr) != errClass(err) {
				t.Fatalf("reused scratch: %v, fresh parse: %v", gotErr, err)
			}
			if err == nil && !reflect.DeepEqual(got, frame) {
				t.Fatalf("reused scratch parse differs:\n reused %+v\n fresh  %+v", got, frame)
			}
		}
	})
}

func buildSYNForFuzz() []byte {
	opts := BuildOptions(LayoutLinux, 7)
	buf := AppendEthernet(nil, srcMAC, dstMAC, EtherTypeIPv4)
	buf = AppendIPv4(buf, IPv4{TTL: 64, Protocol: ProtocolTCP, Src: 1, Dst: 2}, TCPHeaderLen+len(opts))
	buf, _ = AppendTCP(buf, TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN, Options: opts}, 1, 2, nil)
	return buf
}

func BenchmarkBuildSYNNoOptions(b *testing.B) { benchBuildSYN(b, LayoutNone) }
func BenchmarkBuildSYNMSS(b *testing.B)       { benchBuildSYN(b, LayoutMSS) }
func BenchmarkBuildSYNLinux(b *testing.B)     { benchBuildSYN(b, LayoutLinux) }
func BenchmarkBuildSYNWindows(b *testing.B)   { benchBuildSYN(b, LayoutWindows) }

func benchBuildSYN(b *testing.B, layout OptionLayout) {
	opts := BuildOptions(layout, 7)
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf = AppendEthernet(buf, srcMAC, dstMAC, EtherTypeIPv4)
		buf = AppendIPv4(buf, IPv4{ID: uint16(i), TTL: 255, Protocol: ProtocolTCP, Src: 1, Dst: uint32(i)}, TCPHeaderLen+len(opts))
		buf, _ = AppendTCP(buf, TCP{SrcPort: 54321, DstPort: 80, Seq: uint32(i), Flags: FlagSYN, Window: 65535, Options: opts}, 1, uint32(i), nil)
	}
	benchLen = len(buf)
}

func BenchmarkParseSYNACK(b *testing.B) {
	frame := buildSYNForFuzz()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Parse(frame)
		if err != nil {
			b.Fatal(err)
		}
		benchLen = int(f.TCP.DstPort)
	}
}

var benchLen int
