package probe

import (
	"math/rand"
	"testing"

	"zmapgo/internal/packet"
)

// allModules returns every registered module, so a module added later is
// held to the one-word contract without editing these tests.
func allModules(t testing.TB) []Module {
	t.Helper()
	var mods []Module
	for _, n := range Names() {
		m, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	return mods
}

// reply is one kind of valid response to a module's probe, with the
// response fields that carry the validation and their widths in bits.
type reply struct {
	name   string
	frame  *packet.Frame
	fields []field
}

type field struct {
	name string
	bits int
	flip func(f *packet.Frame, bit int)
}

// repliesTo builds, from the probe's own bytes alone, every kind of
// response a simulator host would send to it and the module accepts.
func repliesTo(t testing.TB, ctx *Context, m Module, probe []byte) []reply {
	t.Helper()
	p, err := packet.Parse(probe)
	if err != nil {
		t.Fatal(err)
	}
	host := p.IP.Dst
	hdr := func(proto byte, n int) []byte {
		buf := packet.AppendEthernet(nil, ctx.GwMAC, ctx.SrcMAC, packet.EtherTypeIPv4)
		return packet.AppendIPv4(buf, packet.IPv4{TTL: 64, Protocol: proto, Src: host, Dst: ctx.SrcIP}, n)
	}
	parse := func(buf []byte) *packet.Frame {
		f, err := packet.Parse(buf)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	tcp := func(h packet.TCP) *packet.Frame {
		h.SrcPort, h.DstPort, h.Window = p.TCP.DstPort, p.TCP.SrcPort, 65535
		buf, err := packet.AppendTCP(hdr(packet.ProtocolTCP, packet.TCPHeaderLen), h, host, ctx.SrcIP, nil)
		if err != nil {
			t.Fatal(err)
		}
		return parse(buf)
	}
	tcpDstPort := field{"dst port", 16, func(f *packet.Frame, b int) { f.TCP.DstPort ^= 1 << b }}

	switch m.Name() {
	case "tcp_synscan":
		// An RST may acknowledge seq or seq+1, so one flip of its low bit
		// can be valid; the SYN-ACK is the reply whose every bit counts.
		return []reply{
			{"synack", tcp(packet.TCP{Seq: 99, Ack: p.TCP.Seq + 1, Flags: packet.FlagSYN | packet.FlagACK}), []field{
				{"ack", 32, func(f *packet.Frame, b int) { f.TCP.Ack ^= 1 << b }}, tcpDstPort,
			}},
			{"rst", tcp(packet.TCP{Ack: p.TCP.Seq + 1, Flags: packet.FlagRST | packet.FlagACK}), []field{tcpDstPort}},
			{"rst acking seq", tcp(packet.TCP{Ack: p.TCP.Seq, Flags: packet.FlagRST | packet.FlagACK}), nil},
		}
	case "tcp_synackscan":
		return []reply{{"rst", tcp(packet.TCP{Seq: p.TCP.Ack, Flags: packet.FlagRST}), []field{
			{"seq", 32, func(f *packet.Frame, b int) { f.TCP.Seq ^= 1 << b }}, tcpDstPort,
		}}}
	case "icmp_echoscan":
		buf := packet.AppendICMPEcho(hdr(packet.ProtocolICMP, packet.ICMPHeaderLen), packet.ICMPEchoReply, p.ICMP.ID, p.ICMP.Seq, nil)
		return []reply{{"echoreply", parse(buf), []field{
			{"icmp id", 16, func(f *packet.Frame, b int) { f.ICMP.ID ^= 1 << b }},
			{"icmp seq", 16, func(f *packet.Frame, b int) { f.ICMP.Seq ^= 1 << b }},
		}}}
	case "udp":
		body := []byte("ok")
		buf := packet.AppendUDP(hdr(packet.ProtocolUDP, packet.UDPHeaderLen+len(body)), p.UDP.DstPort, p.UDP.SrcPort, host, ctx.SrcIP, body)
		quote := probe[packet.EthernetHeaderLen : packet.EthernetHeaderLen+packet.IPv4HeaderLen+8]
		return []reply{
			{"udp", parse(buf), []field{
				{"dst port", 16, func(f *packet.Frame, b int) { f.UDP.DstPort ^= 1 << b }},
			}},
			{"port-unreach", unreachFrame(t, ctx, host, quote), []field{
				// Payload aliases the frame's own buffer, built per reply.
				{"quoted src port", 16, func(f *packet.Frame, b int) { f.Payload[packet.IPv4HeaderLen+1-b/8] ^= 1 << (b % 8) }},
				{"quoted src addr", 32, func(f *packet.Frame, b int) { f.Payload[15-b/8] ^= 1 << (b % 8) }},
			}},
		}
	}
	t.Fatalf("no reply shape for module %q: add one", m.Name())
	return nil
}

// TestOneWordPerPacket pins the cost model both hot paths are built on:
// a probe — rendered from a template or built from scratch — and a
// classified response each compute exactly one validation word, in every
// module.
func TestOneWordPerPacket(t *testing.T) {
	for _, m := range allModules(t) {
		t.Run(m.Name(), func(t *testing.T) {
			ctx := templateTestContext(t, packet.LayoutMSS, true, 256)
			var n counter
			ctx.Validator.Instrument(&n)
			r, err := m.MakeTemplate(ctx)
			if err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, r.Len())
			r.Seed(frame)

			n = 0
			r.Render(frame, 0x01020304, 443)
			if n != 1 {
				t.Errorf("Render computed %d words, want 1", n)
			}
			n = 0
			probe := mustProbe(t, m, nil, ctx, 0x01020304, 443)
			if n != 1 {
				t.Errorf("MakeProbe computed %d words, want 1", n)
			}
			for _, rep := range repliesTo(t, ctx, m, probe) {
				n = 0
				if _, ok := m.Classify(ctx, rep.frame); !ok {
					t.Errorf("%s reply rejected", rep.name)
				}
				if n != 1 {
					t.Errorf("Classify of a %s reply computed %d words, want 1", rep.name, n)
				}
			}
		})
	}
}

type counter uint64

func (c *counter) Add(n uint64) { *c += counter(n) }

// TestRoundTripAndBitFlips is the validation property end to end, for
// every module and every kind of reply: a rendered probe's reply is
// accepted and names the probed target, and flipping any single bit of a
// field that carries the validation word — acknowledgment, destination
// port, ICMP id/seq, the quoted source of an unreachable — makes it a
// forgery.
func TestRoundTripAndBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range allModules(t) {
		t.Run(m.Name(), func(t *testing.T) {
			ctx := templateTestContext(t, packet.LayoutMSS, true, 256)
			r, err := m.MakeTemplate(ctx)
			if err != nil {
				t.Fatal(err)
			}
			probe := make([]byte, r.Len())
			r.Seed(probe)
			for i := 0; i < 64; i++ {
				ip, port := rng.Uint32(), uint16(rng.Uint32())
				r.Render(probe, ip, port)
				for _, rep := range repliesTo(t, ctx, m, probe) {
					res, ok := m.Classify(ctx, rep.frame)
					if !ok {
						t.Fatalf("%s reply to (%#x, %d) rejected", rep.name, ip, port)
					}
					wantPort := port
					if m.Name() == "icmp_echoscan" {
						wantPort = 0 // echo probes have no port
					}
					if res.IP != ip || res.Port != wantPort {
						t.Fatalf("%s reply classified as (%#x, %d), want (%#x, %d)", rep.name, res.IP, res.Port, ip, wantPort)
					}
					for _, fl := range rep.fields {
						for bit := 0; bit < fl.bits; bit++ {
							fl.flip(rep.frame, bit)
							if _, ok := m.Classify(ctx, rep.frame); ok {
								t.Fatalf("%s reply to (%#x, %d) accepted with bit %d of %s flipped", rep.name, ip, port, bit, fl.name)
							}
							fl.flip(rep.frame, bit)
						}
					}
				}
			}
		})
	}
}
