// Package probe implements ZMap's probe modules: the pluggable pairs of
// (packet constructor, response classifier) that define what a scan sends
// and what counts as a response. The module system survives from the
// original architecture; the lesson recorded in §5 is that probe modules
// were worth keeping while output modules for specific databases were not.
//
// Three modules match upstream ZMap's most-used set:
//
//   - tcp_synscan: SYN probes, classifying SYN-ACK (success) and RST.
//   - icmp_echoscan: echo requests, classifying echo replies.
//   - udp: a payload probe, classifying UDP replies and ICMP unreachable.
//
// Modules are stateless; all mutable probe fields are derived from the
// scan's Validator so responses can be verified without per-probe state.
package probe

import (
	"fmt"
	"sort"

	"zmapgo/internal/packet"
	"zmapgo/internal/validate"
)

// Context carries the per-scan parameters modules need to build and
// validate probes. One Context is shared by all send threads; it is
// immutable after scan start.
type Context struct {
	SrcIP  uint32
	SrcMAC packet.MAC
	GwMAC  packet.MAC

	Validator *validate.Validator

	// SourcePortBase/Count define the source port range; the port for a
	// flow is chosen deterministically by the Validator.
	SourcePortBase  uint16
	SourcePortCount uint16

	// Options selects the TCP option layout for SYN probes (Figure 7).
	Options packet.OptionLayout

	// RandomIPID uses a per-probe pseudorandom IP ID instead of ZMap's
	// classic static 54321 (the 2024 default change, §4.3).
	RandomIPID bool

	// TTL for outgoing probes.
	TTL byte

	// TimestampValue seeds the TCP timestamp option.
	TimestampValue uint32
}

// word computes the validation word of the probe to (ip, port): the one
// block every mutable field of the probe, and every check on a response
// to it, is read from.
func (c *Context) word(ip uint32, port uint16) validate.Word {
	return c.Validator.Word(c.SrcIP, ip, port)
}

func (c *Context) sourcePort(w validate.Word) uint16 {
	return w.SourcePort(c.SourcePortBase, c.SourcePortCount)
}

func (c *Context) ipID(w validate.Word) uint16 {
	if c.RandomIPID {
		return w.IPID()
	}
	return packet.ZMapIPID
}

// Result is a classified response.
type Result struct {
	// IP is the responding address; Port the scanned port (0 for ICMP).
	IP   uint32
	Port uint16
	// Class is the response class ("synack", "rst", "echoreply",
	// "udp", "port-unreach").
	Class string
	// Success marks classes that indicate an open service.
	Success bool
	// TTL observed on the response.
	TTL byte
}

// Module builds probes for targets and classifies responses.
type Module interface {
	// Name is the registry key (e.g. "tcp_synscan").
	Name() string
	// MakeProbe appends a complete Ethernet frame probing (ip, port). A
	// non-nil error means the frame could not be built (e.g. a malformed
	// option layout). The engine never calls it per target: it builds the
	// template's prototype frame, and it is the oracle the template tests
	// compare Render against.
	MakeProbe(buf []byte, ctx *Context, ip uint32, port uint16) ([]byte, error)
	// Templater is how the engine builds every probe it sends.
	Templater
	// Classify validates a parsed inbound frame against the scan
	// context. ok is false for frames that are not valid responses to
	// this scan (wrong validation bytes, irrelevant traffic).
	Classify(ctx *Context, f *packet.Frame) (Result, bool)
	// ProbeLen returns the probe frame length (for bandwidth math).
	ProbeLen(ctx *Context) int
}

var registry = map[string]Module{}

// Register adds a module; it panics on duplicates (a packaging error).
func Register(m Module) {
	if _, dup := registry[m.Name()]; dup {
		panic("probe: duplicate module " + m.Name())
	}
	registry[m.Name()] = m
}

// Lookup returns the module with the given name.
func Lookup(name string) (Module, error) {
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("probe: unknown module %q (have %v)", name, Names())
	}
	return m, nil
}

// Names lists registered modules, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(SYNScan{})
	Register(ICMPEchoScan{})
	Register(UDPScan{})
}

// SYNScan is the flagship tcp_synscan module.
type SYNScan struct{}

// Name implements Module.
func (SYNScan) Name() string { return "tcp_synscan" }

// MakeProbe implements Module.
func (SYNScan) MakeProbe(buf []byte, ctx *Context, ip uint32, port uint16) ([]byte, error) {
	opts := packet.BuildOptions(ctx.Options, ctx.TimestampValue)
	w := ctx.word(ip, port)
	buf = packet.AppendEthernet(buf, ctx.SrcMAC, ctx.GwMAC, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID:       ctx.ipID(w),
		DontFrag: true,
		TTL:      ctx.TTL,
		Protocol: packet.ProtocolTCP,
		Src:      ctx.SrcIP,
		Dst:      ip,
	}, packet.TCPHeaderLen+len(opts))
	return packet.AppendTCP(buf, packet.TCP{
		SrcPort: ctx.sourcePort(w),
		DstPort: port,
		Seq:     w.Seq(),
		Flags:   packet.FlagSYN,
		Window:  65535,
		Options: opts,
	}, ctx.SrcIP, ip, nil)
}

// Classify implements Module.
func (SYNScan) Classify(ctx *Context, f *packet.Frame) (Result, bool) {
	if f.TCP == nil || f.IP.Dst != ctx.SrcIP {
		return Result{}, false
	}
	ip := f.IP.Src
	port := f.TCP.SrcPort // responder's source port is the scanned port
	isRST := f.TCP.Flags&packet.FlagRST != 0
	w := ctx.word(ip, port)
	if !w.AckValid(f.TCP.Ack, isRST) || f.TCP.DstPort != ctx.sourcePort(w) {
		return Result{}, false
	}
	r := Result{IP: ip, Port: port, TTL: f.IP.TTL}
	switch {
	case f.TCP.Flags&packet.FlagSYN != 0 && f.TCP.Flags&packet.FlagACK != 0:
		r.Class, r.Success = "synack", true
	case isRST:
		r.Class, r.Success = "rst", false
	default:
		return Result{}, false
	}
	return r, true
}

// ProbeLen implements Module.
func (SYNScan) ProbeLen(ctx *Context) int { return packet.SYNFrameLen(ctx.Options) }

// ICMPEchoScan is the icmp_echoscan module. Ports are ignored.
type ICMPEchoScan struct{}

// Name implements Module.
func (ICMPEchoScan) Name() string { return "icmp_echoscan" }

// MakeProbe implements Module.
func (ICMPEchoScan) MakeProbe(buf []byte, ctx *Context, ip uint32, _ uint16) ([]byte, error) {
	w := ctx.word(ip, 0)
	id, seq := w.ICMPIDSeq()
	buf = packet.AppendEthernet(buf, ctx.SrcMAC, ctx.GwMAC, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID:       ctx.ipID(w),
		DontFrag: true,
		TTL:      ctx.TTL,
		Protocol: packet.ProtocolICMP,
		Src:      ctx.SrcIP,
		Dst:      ip,
	}, packet.ICMPHeaderLen)
	return packet.AppendICMPEcho(buf, packet.ICMPEchoRequest, id, seq, nil), nil
}

// Classify implements Module.
func (ICMPEchoScan) Classify(ctx *Context, f *packet.Frame) (Result, bool) {
	if f.ICMP == nil || f.IP.Dst != ctx.SrcIP || f.ICMP.Type != packet.ICMPEchoReply {
		return Result{}, false
	}
	ip := f.IP.Src
	id, seq := ctx.word(ip, 0).ICMPIDSeq()
	if f.ICMP.ID != id || f.ICMP.Seq != seq {
		return Result{}, false
	}
	return Result{IP: ip, Class: "echoreply", Success: true, TTL: f.IP.TTL}, true
}

// ProbeLen implements Module.
func (ICMPEchoScan) ProbeLen(_ *Context) int {
	return packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.ICMPHeaderLen
}

// UDPScan is a minimal udp module with a fixed payload.
type UDPScan struct{}

// Name implements Module.
func (UDPScan) Name() string { return "udp" }

// udpPayload is the probe body; real deployments template this per
// protocol, which composes with this module unchanged.
var udpPayload = []byte("zmapgo-udp-probe")

// MakeProbe implements Module.
func (UDPScan) MakeProbe(buf []byte, ctx *Context, ip uint32, port uint16) ([]byte, error) {
	w := ctx.word(ip, port)
	buf = packet.AppendEthernet(buf, ctx.SrcMAC, ctx.GwMAC, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID:       ctx.ipID(w),
		DontFrag: true,
		TTL:      ctx.TTL,
		Protocol: packet.ProtocolUDP,
		Src:      ctx.SrcIP,
		Dst:      ip,
	}, packet.UDPHeaderLen+len(udpPayload))
	return packet.AppendUDP(buf, ctx.sourcePort(w), port, ctx.SrcIP, ip, udpPayload), nil
}

// Classify implements Module.
func (UDPScan) Classify(ctx *Context, f *packet.Frame) (Result, bool) {
	switch {
	case f.UDP != nil && f.IP.Dst == ctx.SrcIP:
		ip, port := f.IP.Src, f.UDP.SrcPort
		if f.UDP.DstPort != ctx.sourcePort(ctx.word(ip, port)) {
			return Result{}, false
		}
		return Result{IP: ip, Port: port, Class: "udp", Success: true, TTL: f.IP.TTL}, true
	case f.ICMP != nil && f.IP.Dst == ctx.SrcIP && f.ICMP.Type == packet.ICMPDestUnreach:
		// The quoted original datagram identifies the scanned target.
		// The quote is attacker-controlled, so it must be one of our own
		// probes: sent from our address, from the source port derived
		// for the flow it names.
		q, ok := ParseUnreachQuote(f.Payload)
		if !ok || q.Proto != packet.ProtocolUDP || q.Src != ctx.SrcIP ||
			q.SrcPort != ctx.sourcePort(ctx.word(q.Dst, q.DstPort)) {
			return Result{}, false
		}
		return Result{IP: q.Dst, Port: q.DstPort, Class: "port-unreach", Success: false, TTL: f.IP.TTL}, true
	default:
		return Result{}, false
	}
}

// UnreachQuote is the decoded head of the original datagram quoted in an
// ICMP destination-unreachable payload: the addresses and protocol of
// the probe that elicited the error, plus the first transport header
// words (meaningful ports only for TCP/UDP quotes).
type UnreachQuote struct {
	Src, Dst         uint32
	Proto            byte
	SrcPort, DstPort uint16
}

// ParseUnreachQuote decodes the quoted IP header + 8 bytes inside an
// ICMP unreachable payload. The bytes are attacker-controlled — any
// host on the Internet can mail the scanner an ICMP error — so every
// offset is bounds checked and garbage quotes are rejected. Callers
// must further validate that Src is the scanner's own address before
// acting on the quote (otherwise spoofed errors could, e.g., drive an
// adaptive rate controller down).
func ParseUnreachQuote(quote []byte) (UnreachQuote, bool) {
	if len(quote) < packet.IPv4HeaderLen+8 {
		return UnreachQuote{}, false
	}
	if quote[0]>>4 != 4 {
		return UnreachQuote{}, false
	}
	ihl := int(quote[0]&0x0F) * 4
	if ihl < packet.IPv4HeaderLen || len(quote) < ihl+4 {
		return UnreachQuote{}, false
	}
	q := UnreachQuote{
		Src: uint32(quote[12])<<24 | uint32(quote[13])<<16 | uint32(quote[14])<<8 | uint32(quote[15]),
		Dst: uint32(quote[16])<<24 | uint32(quote[17])<<16 | uint32(quote[18])<<8 | uint32(quote[19]),

		Proto:   quote[9],
		SrcPort: uint16(quote[ihl])<<8 | uint16(quote[ihl+1]),
		DstPort: uint16(quote[ihl+2])<<8 | uint16(quote[ihl+3]),
	}
	return q, true
}

// ProbeLen implements Module.
func (UDPScan) ProbeLen(_ *Context) int {
	return packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen + len(udpPayload)
}
