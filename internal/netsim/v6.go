package netsim

import (
	"zmapgo/internal/hashx"
	"zmapgo/internal/packet"
)

// IPv6 host model. IPv6 cannot be exhaustively scanned, so the v6 world
// is organized around hitlists (as XMap/ZMapv6 deployments are): any
// 128-bit address can be queried, attributes are hashed from the full
// address, and responsiveness among hitlist-style addresses is much
// higher than the v4 base rate (hitlists are curated from known-live
// sources).

// v6LiveFraction is the fraction of queried v6 addresses with a host:
// calibrated for hitlist populations, not random address space.
const v6LiveFraction = 0.35

// v6hash folds a 128-bit address (and salt) into the attribute PRF.
func (in *Internet) v6hash(purpose uint64, addr [16]byte, port uint16) uint64 {
	h := in.cfg.Seed ^ purpose<<56 ^ uint64(port)<<40
	for i := 0; i < 16; i += 8 {
		word := uint64(addr[i])<<56 | uint64(addr[i+1])<<48 | uint64(addr[i+2])<<40 |
			uint64(addr[i+3])<<32 | uint64(addr[i+4])<<24 | uint64(addr[i+5])<<16 |
			uint64(addr[i+6])<<8 | uint64(addr[i+7])
		h = hashx.SplitMix64(h ^ word)
	}
	return h
}

// Live6 reports whether a host exists at the v6 address.
func (in *Internet) Live6(addr [16]byte) bool {
	return uniform(in.v6hash(purposeLive, addr, 0)) < v6LiveFraction
}

// ServiceOpen6 reports whether a TCP service listens at (addr, port).
// Port densities reuse the v4 tables conditioned on liveness.
func (in *Internet) ServiceOpen6(addr [16]byte, port uint16) bool {
	if !in.Live6(addr) {
		return false
	}
	p, ok := in.cfg.AssignedPortOpen[port]
	if !ok {
		p = in.cfg.TailPortOpen
	}
	// Hitlist hosts are live by construction, so their per-port service
	// density runs ~3x the v4 conditional rate (services are why they
	// appear on hitlists).
	p *= 3
	if p > 1 {
		p = 1
	}
	return uniform(in.v6hash(purposeService, addr, port)) < p
}

// Respond6 answers an IPv6 TCP SYN probe frame, mirroring respondTCP:
// SYN-ACK for open services (option gating reuses the v4 stack model),
// RST from live hosts on closed ports, silence otherwise. There are no
// v6 middleboxes in the model — SYN-ACK-everything prefixes are a v4
// telescope phenomenon.
func (in *Internet) Respond6(probe []byte) []Response { return in.appendResponses6(nil, probe) }

// appendResponses6 is Respond6 appending into the caller's out.
func (in *Internet) appendResponses6(out []Response, probe []byte) []Response {
	f, err := packet.ParseIPv6(probe)
	if err != nil || f.TCP == nil {
		return out
	}
	if f.TCP.Flags != packet.FlagSYN {
		return out
	}
	if in.lost(in.cfg.ProbeLoss) {
		return out
	}
	addr, port := f.IP.Dst, f.TCP.DstPort
	rttKey := uint32(in.v6hash(purposeLatency, addr, 0))
	rtt := in.RTT(rttKey)
	if in.ServiceOpen6(addr, port) && in.acceptsSYN6(addr, port, f.TCP.Options) {
		if in.lost(in.cfg.ResponseLoss) {
			return out
		}
		return append(out, Response{Delay: rtt, Frame: in.buildTCP6Reply(f, packet.FlagSYN|packet.FlagACK)})
	}
	if in.Live6(addr) && uniform(in.v6hash(purposeRST, addr, port)) < in.cfg.RSTFraction {
		if in.lost(in.cfg.ResponseLoss) {
			return out
		}
		return append(out, Response{Delay: rtt, Frame: in.buildTCP6Reply(f, packet.FlagRST|packet.FlagACK)})
	}
	return out
}

// acceptsSYN6 applies the option-sensitivity model to v6 services.
func (in *Internet) acceptsSYN6(addr [16]byte, port uint16, options []byte) bool {
	u := uniform(in.v6hash(purposeOptions, addr, port))
	if u < in.cfg.RequireOptionFraction {
		kinds := packet.OptionKinds(options)
		for kind, prob := range in.cfg.OptionAcceptProb {
			if !kinds[kind] {
				continue
			}
			if uniform(in.v6hash(purposeOptions+16+uint64(kind), addr, port)) < prob {
				return true
			}
		}
		return false
	}
	return true
}

func (in *Internet) buildTCP6Reply(f *packet.Frame6, flags byte) []byte {
	addr, port := f.IP.Dst, f.TCP.DstPort
	var opts []byte
	if flags&packet.FlagSYN != 0 {
		opts = packet.BuildOptions(packet.LayoutMSS, 0)
	}
	buf := make([]byte, 0, 96)
	buf = packet.AppendEthernet(buf, hostMAC, f.EthSrc, packet.EtherTypeIPv6)
	buf = packet.AppendIPv6(buf, packet.IPv6Header{
		NextHeader: packet.ProtocolTCP,
		HopLimit:   64,
		Src:        f.IP.Dst,
		Dst:        f.IP.Src,
	}, packet.TCPHeaderLen+len(opts))
	buf, _ = packet.AppendTCP6(buf, packet.TCP{
		SrcPort: port,
		DstPort: f.TCP.SrcPort,
		Seq:     uint32(in.v6hash(purposeService+32, addr, port)),
		Ack:     f.TCP.Seq + 1,
		Flags:   flags,
		Window:  28960,
		Options: opts,
	}, f.IP.Dst, f.IP.Src, nil) // BuildOptions layouts are 4-aligned; cannot fail
	return buf
}
