package probe

import (
	"testing"

	"zmapgo/internal/packet"
)

// buildQuote constructs a quoted IP header (+options) and first 8
// transport bytes the way a router quotes a dropped datagram.
func buildQuote(ihlWords int, proto byte, src, dst uint32, sport, dport uint16, trailing int) []byte {
	hdr := ihlWords * 4
	q := make([]byte, hdr+trailing)
	q[0] = 0x40 | byte(ihlWords)
	q[8] = 64
	q[9] = proto
	q[12], q[13], q[14], q[15] = byte(src>>24), byte(src>>16), byte(src>>8), byte(src)
	q[16], q[17], q[18], q[19] = byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst)
	if trailing >= 2 {
		q[hdr], q[hdr+1] = byte(sport>>8), byte(sport)
	}
	if trailing >= 4 {
		q[hdr+2], q[hdr+3] = byte(dport>>8), byte(dport)
	}
	return q
}

func TestParseUnreachQuote(t *testing.T) {
	const (
		src   = uint32(0xC0000201)
		dst   = uint32(0x0A010203)
		sport = uint16(33333)
		dport = uint16(443)
	)
	valid := buildQuote(5, packet.ProtocolUDP, src, dst, sport, dport, 8)

	tests := []struct {
		name  string
		quote []byte
		want  UnreachQuote
		ok    bool
	}{
		{
			name:  "valid udp quote",
			quote: valid,
			want:  UnreachQuote{Src: src, Dst: dst, Proto: packet.ProtocolUDP, SrcPort: sport, DstPort: dport},
			ok:    true,
		},
		{
			name:  "valid tcp quote",
			quote: buildQuote(5, packet.ProtocolTCP, src, dst, sport, dport, 8),
			want:  UnreachQuote{Src: src, Dst: dst, Proto: packet.ProtocolTCP, SrcPort: sport, DstPort: dport},
			ok:    true,
		},
		{
			name:  "quote with ip options",
			quote: buildQuote(6, packet.ProtocolUDP, src, dst, sport, dport, 8),
			want:  UnreachQuote{Src: src, Dst: dst, Proto: packet.ProtocolUDP, SrcPort: sport, DstPort: dport},
			ok:    true,
		},
		{name: "empty", quote: nil},
		{name: "truncated below minimum", quote: valid[:27]},
		{name: "exactly minimum", quote: valid[:28], want: UnreachQuote{Src: src, Dst: dst, Proto: packet.ProtocolUDP, SrcPort: sport, DstPort: dport}, ok: true},
		{
			name: "version 6 nibble",
			quote: func() []byte {
				q := append([]byte(nil), valid...)
				q[0] = 0x65
				return q
			}(),
		},
		{
			name: "ihl below header minimum",
			quote: func() []byte {
				q := append([]byte(nil), valid...)
				q[0] = 0x44 // ihl=4 words: 16 bytes, impossible
				return q
			}(),
		},
		{
			// ihl claims 15 words of options in a 28-byte quote: the
			// port offsets would land out of bounds.
			name: "ihl past quote end",
			quote: func() []byte {
				q := append([]byte(nil), valid[:28]...)
				q[0] = 0x4F
				return q
			}(),
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseUnreachQuote(tc.quote)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if ok && got != tc.want {
				t.Fatalf("quote = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// appendUnreach wraps quote in the ICMP destination-unreachable a router
// at from would mail the scanner.
func appendUnreach(ctx *Context, from uint32, quote []byte) []byte {
	buf := packet.AppendEthernet(nil, ctx.GwMAC, ctx.SrcMAC, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		TTL: 64, Protocol: packet.ProtocolICMP, Src: from, Dst: ctx.SrcIP,
	}, packet.ICMPHeaderLen+len(quote))
	return packet.AppendICMPEcho(buf, packet.ICMPDestUnreach, 0, 0, quote)
}

// unreachFrame is appendUnreach, parsed.
func unreachFrame(t testing.TB, ctx *Context, from uint32, quote []byte) *packet.Frame {
	t.Helper()
	f, err := packet.Parse(appendUnreach(ctx, from, quote))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// probeSourcePort reads the source port the module itself puts in the
// probe to (ip, port): the only port a genuine quote can carry.
func probeSourcePort(t testing.TB, m Module, ctx *Context, ip uint32, port uint16) uint16 {
	t.Helper()
	f, err := packet.Parse(mustProbe(t, m, nil, ctx, ip, port))
	if err != nil {
		t.Fatal(err)
	}
	if f.UDP != nil {
		return f.UDP.SrcPort
	}
	return f.TCP.SrcPort
}

// TestUDPClassifyValidatesUnreachQuote pins the anti-spoof rule on the
// port-unreach class: any host can mail an ICMP error quoting whatever
// it likes, so a quote counts only when it is the head of a probe this
// scan sends — from the scanner's address, from the source port derived
// for the flow it names. Without the check a forger writes a row for an
// arbitrary (ip, port).
func TestUDPClassifyValidatesUnreachQuote(t *testing.T) {
	ctx := testContext()
	mod, err := Lookup("udp")
	if err != nil {
		t.Fatal(err)
	}
	const target, port = uint32(0x0A010203), uint16(443)
	sport := probeSourcePort(t, mod, ctx, target, port)
	// A second flow whose derived source port differs, so that replaying
	// the first flow's port for it is a forgery (the range has 64 slots).
	other := port + 1
	for probeSourcePort(t, mod, ctx, target, other) == sport {
		other++
	}

	tests := []struct {
		name  string
		quote []byte
		ok    bool
	}{
		{"genuine quote", buildQuote(5, packet.ProtocolUDP, ctx.SrcIP, target, sport, port, 8), true},
		{"genuine quote with ip options", buildQuote(6, packet.ProtocolUDP, ctx.SrcIP, target, sport, port, 8), true},
		{"quoted source is not the scanner", buildQuote(5, packet.ProtocolUDP, ctx.SrcIP+1, target, sport, port, 8), false},
		{"source port outside the range", buildQuote(5, packet.ProtocolUDP, ctx.SrcIP, target, 33333, port, 8), false},
		{"neighbouring source port", buildQuote(5, packet.ProtocolUDP, ctx.SrcIP, target, sport^1, port, 8), false},
		{"another flow's source port", buildQuote(5, packet.ProtocolUDP, ctx.SrcIP, target, sport, other, 8), false},
		{"tcp quote", buildQuote(5, packet.ProtocolTCP, ctx.SrcIP, target, sport, port, 8), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res, ok := mod.Classify(ctx, unreachFrame(t, ctx, 0x0A0000FE, tc.quote))
			if ok != tc.ok {
				t.Fatalf("accepted = %v, want %v (result %+v)", ok, tc.ok, res)
			}
			if ok && (res.Class != "port-unreach" || res.Success || res.IP != target || res.Port != port) {
				t.Fatalf("result = %+v, want port-unreach for (%#x, %d)", res, target, port)
			}
		})
	}
}
