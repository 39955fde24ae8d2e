package probe

import (
	"zmapgo/internal/packet"
)

// SYNACKScan is the tcp_synackscan module: it sends unsolicited SYN-ACK
// segments and classifies the RSTs compliant stacks return. Researchers
// use it for liveness measurement that is robust to SYN-specific
// filtering, and for studying backscatter; notably, stateless
// SYN-responder middleboxes stay silent to it, so its view complements
// tcp_synscan's.
type SYNACKScan struct{}

func init() {
	Register(SYNACKScan{})
}

// Name implements Module.
func (SYNACKScan) Name() string { return "tcp_synackscan" }

// MakeProbe implements Module.
func (SYNACKScan) MakeProbe(buf []byte, ctx *Context, ip uint32, port uint16) ([]byte, error) {
	w := ctx.word(ip, port)
	buf = packet.AppendEthernet(buf, ctx.SrcMAC, ctx.GwMAC, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID:       ctx.ipID(w),
		DontFrag: true,
		TTL:      ctx.TTL,
		Protocol: packet.ProtocolTCP,
		Src:      ctx.SrcIP,
		Dst:      ip,
	}, packet.TCPHeaderLen)
	return packet.AppendTCP(buf, packet.TCP{
		SrcPort: ctx.sourcePort(w),
		DstPort: port,
		Seq:     w.Seq(),
		Ack:     w.Ack(),
		Flags:   packet.FlagSYN | packet.FlagACK,
		Window:  65535,
	}, ctx.SrcIP, ip, nil)
}

// Classify implements Module: a valid response is a RST whose sequence
// number equals the probe's acknowledgment number (RFC 9293 "If the ACK
// bit is on, <SEQ=SEG.ACK><CTL=RST>").
func (SYNACKScan) Classify(ctx *Context, f *packet.Frame) (Result, bool) {
	if f.TCP == nil || f.IP.Dst != ctx.SrcIP {
		return Result{}, false
	}
	if f.TCP.Flags&packet.FlagRST == 0 {
		return Result{}, false
	}
	ip := f.IP.Src
	port := f.TCP.SrcPort
	w := ctx.word(ip, port)
	if f.TCP.Seq != w.Ack() || f.TCP.DstPort != ctx.sourcePort(w) {
		return Result{}, false
	}
	// A RST to an unsolicited SYN-ACK demonstrates a live stack, which
	// is the success condition for this module.
	return Result{IP: ip, Port: port, Class: "rst", Success: true, TTL: f.IP.TTL}, true
}

// ProbeLen implements Module.
func (SYNACKScan) ProbeLen(_ *Context) int {
	return packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen
}
