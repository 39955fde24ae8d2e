package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"zmapgo/internal/dnswire"
	"zmapgo/internal/packet"
)

// goldenProbes is the fixed sweep TestRespondGolden pins: SYNs under two
// option layouts over 2^14 addresses spread across /16s (so middlebox
// prefixes are reached) and five ports, unsolicited SYN-ACKs, repeated
// ICMP echoes (so rate-limiting hosts go silent), UDP to DNS, NTP and a
// closed port, and v6 SYNs.
func goldenProbes() [][]byte {
	var probes [][]byte
	spread := func(i int) uint32 { return uint32(i) * 0x9E3779B1 }
	for _, layout := range []packet.OptionLayout{packet.LayoutMSS, packet.LayoutNone} {
		for i := 0; i < 1<<14; i++ {
			for _, port := range []uint16{22, 80, 443, 8080, 40000} {
				probes = append(probes, buildSYNProbe(spread(i), port, layout))
			}
		}
	}
	for i := 0; i < 1<<12; i++ {
		dst := spread(i)
		buf := packet.AppendEthernet(nil, probeSrcMAC, packet.MAC{}, packet.EtherTypeIPv4)
		buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 255, Protocol: packet.ProtocolTCP, Src: 9, Dst: dst}, packet.TCPHeaderLen)
		buf, _ = packet.AppendTCP(buf, packet.TCP{
			SrcPort: 54321, DstPort: 80, Seq: 100, Ack: uint32(i) * 7919,
			Flags: packet.FlagSYN | packet.FlagACK,
		}, 9, dst, nil)
		probes = append(probes, buf)
	}
	for i := 0; i < 1<<10; i++ {
		dst := spread(i)
		for rep := uint16(0); rep < 6; rep++ {
			payload := []byte("echo")
			buf := packet.AppendEthernet(nil, probeSrcMAC, packet.MAC{}, packet.EtherTypeIPv4)
			buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 255, Protocol: packet.ProtocolICMP, Src: 9, Dst: dst}, packet.ICMPHeaderLen+len(payload))
			probes = append(probes, packet.AppendICMPEcho(buf, packet.ICMPEchoRequest, uint16(i), rep, payload))
		}
	}
	query, err := dnswire.AppendQuery(nil, 0x5A5A, "host-g.example", dnswire.TypeA)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 1<<13; i++ {
		dst := spread(i)
		for _, port := range []uint16{53, 123, 9999} {
			payload := []byte("probe")
			if port == 53 {
				payload = query
			}
			buf := packet.AppendEthernet(nil, probeSrcMAC, packet.MAC{}, packet.EtherTypeIPv4)
			buf = packet.AppendIPv4(buf, packet.IPv4{TTL: 255, Protocol: packet.ProtocolUDP, Src: 9, Dst: dst}, packet.UDPHeaderLen+len(payload))
			probes = append(probes, packet.AppendUDP(buf, 44444, port, 9, dst, payload))
		}
	}
	for i := 0; i < 1<<12; i++ {
		for _, port := range []uint16{80, 443} {
			probes = append(probes, buildSYN6Probe(uint32(i), port))
		}
	}
	return probes
}

// buildSYN6Probe builds a v6 SYN to 2001:db8::<host> carrying the MSS
// option.
func buildSYN6Probe(host uint32, port uint16) []byte {
	var src, dst [16]byte
	src[0], src[1], src[15] = 0x20, 0x01, 1
	dst[0], dst[1], dst[2], dst[3] = 0x20, 0x01, 0x0d, 0xb8
	binary.BigEndian.PutUint32(dst[12:], host)
	opts := packet.BuildOptions(packet.LayoutMSS, 0)
	buf := packet.AppendEthernet(nil, probeSrcMAC, packet.MAC{}, packet.EtherTypeIPv6)
	buf = packet.AppendIPv6(buf, packet.IPv6Header{NextHeader: packet.ProtocolTCP, HopLimit: 64, Src: src, Dst: dst},
		packet.TCPHeaderLen+len(opts))
	buf, _ = packet.AppendTCP6(buf, packet.TCP{
		SrcPort: 54321, DstPort: port, Seq: 0x2000, Flags: packet.FlagSYN,
		Window: 65535, Options: opts,
	}, src, dst, nil)
	return buf
}

// goldenShape counts what the sweep reached, so a digest cannot be pinned
// over a sweep that silently stopped exercising a responder.
type goldenShape struct {
	synack, rst, blowback, middlebox, icmp, unreach, udp, v6 int
}

// goldenDigest answers every probe on one goroutine and hashes each
// probe's response count and every response's (Delay, Frame), in order.
func goldenDigest(in *Internet, probes [][]byte) (string, goldenShape) {
	h := sha256.New()
	var sh goldenShape
	var word [8]byte
	for _, p := range probes {
		rs := in.Respond(p)
		binary.BigEndian.PutUint32(word[:4], uint32(len(rs)))
		h.Write(word[:4])
		if len(rs) > 1 {
			sh.blowback++
		}
		for i, r := range rs {
			binary.BigEndian.PutUint64(word[:], uint64(r.Delay))
			h.Write(word[:])
			binary.BigEndian.PutUint32(word[:4], uint32(len(r.Frame)))
			h.Write(word[:4])
			h.Write(r.Frame)
			if i == 0 {
				sh.count(in, p, r.Frame)
			}
			PutFrame(r.Frame)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), sh
}

func (sh *goldenShape) count(in *Internet, probe, resp []byte) {
	if uint16(resp[12])<<8|uint16(resp[13]) == packet.EtherTypeIPv6 {
		sh.v6++
		return
	}
	f, err := packet.Parse(resp)
	if err != nil {
		return
	}
	switch {
	case f.TCP != nil && f.TCP.Flags&packet.FlagRST != 0:
		sh.rst++
	case f.TCP != nil:
		sh.synack++
		if in.Middlebox(f.IP.Src) {
			sh.middlebox++
		}
	case f.UDP != nil:
		sh.udp++
	case f.ICMP != nil && f.ICMP.Type == packet.ICMPDestUnreach:
		sh.unreach++
	case f.ICMP != nil:
		sh.icmp++
	}
}

// TestRespondGolden pins the host model byte for byte: every response
// frame, its delay and the order they come in, over a fixed sweep, under
// a lossless and the default (lossy, rate-limiting) population. The
// digests were taken before the responders were made allocation-free
// and must never be edited to make a change pass: a changed digest means
// the simulated Internet answers differently.
func TestRespondGolden(t *testing.T) {
	probes := goldenProbes()
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"lossless", lossless(41), "a9656bc0f33541bbf4c0bd4799a5dfadbf8a49973faee2f3667617078cd76c63"},
		{"default", DefaultConfig(41), "da52905e4064bc941aed51ffc389cefb55f3d941e419bad5d6832e8b6c811ccb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, sh := goldenDigest(New(tc.cfg), probes)
			if sh.synack == 0 || sh.rst == 0 || sh.blowback == 0 || sh.middlebox == 0 ||
				sh.icmp == 0 || sh.unreach == 0 || sh.udp == 0 || sh.v6 == 0 {
				t.Fatalf("sweep missed a responder: %+v", sh)
			}
			if got != tc.want {
				t.Errorf("response digest %s, want %s", got, tc.want)
			}
		})
	}
}
