package probe

import (
	"encoding/binary"
	"testing"

	"zmapgo/internal/packet"
)

// withIPOptions returns the IPv4 packet pkt with four bytes of options
// spliced in behind its fixed header: IHL 6, total length grown to
// match. Checksums go stale, which FuzzValidate's unverified parse does
// not mind.
func withIPOptions(pkt []byte) []byte {
	out := append([]byte(nil), pkt[:packet.IPv4HeaderLen]...)
	out = append(out, 1, 1, 1, 0) // NOP NOP NOP EOL
	out = append(out, pkt[packet.IPv4HeaderLen:]...)
	out[0] = 0x46
	binary.BigEndian.PutUint16(out[2:4], binary.BigEndian.Uint16(out[2:4])+4)
	return out
}

// FuzzValidate feeds arbitrary frames through the full
// parse-then-classify pipeline of every registered probe module: the
// exact path a hostile network drives in the receiver. Invariants: no
// panic; no classifier accepts a frame that is not addressed to the
// scanner; and an accepted result names either the frame's own source or,
// for a port-unreach, the target of a quote that is the head of a probe
// this scan would send — so no input the fuzzer can construct writes a
// row for a flow it holds no validation word for. And packet.FlowKey,
// which reads the raw frame ahead of the parser to pick the dedup shard,
// never panics and names the flow the classifier does, or a response
// would meet the wrong shard's window.
func FuzzValidate(f *testing.F) {
	ctx := testContext()
	// True positive: the simulator-shaped SYN-ACK a live host would send
	// in response to our own probe (correct ack = our seq + 1).
	tcpMod, _ := Lookup("tcp_synscan")
	probeFrame := mustProbe(f, tcpMod, nil, ctx, 0x0A000001, 443)
	pf, err := packet.Parse(probeFrame)
	if err != nil {
		f.Fatal(err)
	}
	synack := packet.AppendEthernet(nil, ctx.GwMAC, ctx.SrcMAC, packet.EtherTypeIPv4)
	synack = packet.AppendIPv4(synack, packet.IPv4{
		TTL: 64, Protocol: packet.ProtocolTCP, Src: 0x0A000001, Dst: ctx.SrcIP,
	}, packet.TCPHeaderLen)
	synack, err = packet.AppendTCP(synack, packet.TCP{
		SrcPort: 443, DstPort: pf.TCP.SrcPort,
		Seq: 99, Ack: pf.TCP.Seq + 1,
		Flags: packet.FlagSYN | packet.FlagACK, Window: 65535,
	}, 0x0A000001, ctx.SrcIP, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(synack)
	// Spoof: structurally identical but with a forged ack number.
	spoof := append([]byte(nil), synack...)
	spoof[len(spoof)-12] ^= 0xA5 // inside the ack field
	f.Add(spoof)
	f.Add(probeFrame) // our own probe looped back
	f.Add([]byte{})
	// A genuine port-unreachable quoting our UDP probe, and the same
	// error with the quoted source port off by one.
	udpMod, _ := Lookup("udp")
	udpProbe := mustProbe(f, udpMod, nil, ctx, 0x0A000001, 53)
	quote := udpProbe[packet.EthernetHeaderLen : packet.EthernetHeaderLen+packet.IPv4HeaderLen+8]
	f.Add(appendUnreach(ctx, 0x0A0000FE, quote))
	forged := append([]byte(nil), quote...)
	forged[packet.IPv4HeaderLen+1] ^= 1
	f.Add(appendUnreach(ctx, 0x0A0000FE, forged))
	// The same error with IP options in the quote, and in its own header:
	// both move the ports FlowKey and the classifier must agree on.
	f.Add(appendUnreach(ctx, 0x0A0000FE, withIPOptions(quote)))
	unreach := appendUnreach(ctx, 0x0A0000FE, quote)
	f.Add(append(unreach[:packet.EthernetHeaderLen:packet.EthernetHeaderLen],
		withIPOptions(unreach[packet.EthernetHeaderLen:])...))

	mods := allModules(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		keyIP, keyPort := packet.FlowKey(data)
		frame, err := packet.Parse(data)
		if err != nil {
			return // parser rejections are FuzzParse's concern
		}
		for _, m := range mods {
			res, ok := m.Classify(ctx, frame)
			if !ok {
				continue
			}
			if keyIP != res.IP || keyPort != res.Port {
				t.Fatalf("%s classified (%08x, %d) but FlowKey sharded the frame by (%08x, %d)",
					m.Name(), res.IP, res.Port, keyIP, keyPort)
			}
			if frame.IP.Dst != ctx.SrcIP {
				t.Fatalf("%s accepted a frame not addressed to the scanner (dst %08x)", m.Name(), frame.IP.Dst)
			}
			if res.Class != "port-unreach" {
				if res.IP != frame.IP.Src {
					t.Fatalf("%s classified result IP %08x from frame src %08x", m.Name(), res.IP, frame.IP.Src)
				}
				continue
			}
			// The row names the quoted target, which the sender of the
			// error chose: it must quote the probe the module itself
			// builds for that target.
			q, ok := ParseUnreachQuote(frame.Payload)
			if !ok || q.Src != ctx.SrcIP || q.Dst != res.IP || q.DstPort != res.Port ||
				q.SrcPort != probeSourcePort(t, m, ctx, res.IP, res.Port) {
				t.Fatalf("%s accepted a port-unreach for (%08x, %d) on an unvalidated quote %+v", m.Name(), res.IP, res.Port, q)
			}
		}
	})
}

// FuzzUnreachQuote hammers the ICMP quoted-packet parser with arbitrary
// bytes. The payload of an unreachable is the least trustworthy input
// the scanner parses — any host can mail one, and the health subsystem
// acts on the result — so the invariants are strict: no panic, and an
// accepted quote's fields must round-trip against manual extraction at
// the offsets the header itself declares.
func FuzzUnreachQuote(f *testing.F) {
	// Seed with a real quote: the head of a UDP probe built by the udp
	// module, exactly what a router would quote back at us.
	ctx := testContext()
	udpMod, _ := Lookup("udp")
	probeFrame := mustProbe(f, udpMod, nil, ctx, 0x0A000001, 53)
	quote := probeFrame[packet.EthernetHeaderLen:]
	if len(quote) > packet.IPv4HeaderLen+8 {
		quote = quote[:packet.IPv4HeaderLen+8]
	}
	f.Add(append([]byte(nil), quote...))
	for _, n := range []int{0, 1, 19, 20, 27} {
		f.Add(append([]byte(nil), quote[:n]...)) // truncations
	}
	mangled := append([]byte(nil), quote...)
	mangled[0] = 0x6F // version/ihl garbage
	f.Add(mangled)

	f.Fuzz(func(t *testing.T, data []byte) {
		q, ok := ParseUnreachQuote(data)
		if !ok {
			if q != (UnreachQuote{}) {
				t.Fatal("rejected quote returned non-zero fields")
			}
			return
		}
		if len(data) < packet.IPv4HeaderLen+8 {
			t.Fatalf("accepted %d-byte quote below the minimum", len(data))
		}
		if data[0]>>4 != 4 {
			t.Fatal("accepted non-IPv4 version nibble")
		}
		ihl := int(data[0]&0x0F) * 4
		if ihl < packet.IPv4HeaderLen || len(data) < ihl+4 {
			t.Fatalf("accepted quote with ihl %d beyond its %d bytes", ihl, len(data))
		}
		wantSrc := uint32(data[12])<<24 | uint32(data[13])<<16 | uint32(data[14])<<8 | uint32(data[15])
		wantDst := uint32(data[16])<<24 | uint32(data[17])<<16 | uint32(data[18])<<8 | uint32(data[19])
		if q.Src != wantSrc || q.Dst != wantDst || q.Proto != data[9] {
			t.Fatalf("quote fields %+v disagree with manual extraction", q)
		}
		if q.SrcPort != uint16(data[ihl])<<8|uint16(data[ihl+1]) ||
			q.DstPort != uint16(data[ihl+2])<<8|uint16(data[ihl+3]) {
			t.Fatalf("port fields %+v disagree with declared ihl %d", q, ihl)
		}
	})
}
