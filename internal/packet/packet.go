// Package packet builds and parses the raw Ethernet/IPv4/TCP/UDP/ICMP
// frames ZMap sends and receives. It is a from-scratch, stdlib-only
// equivalent of the slice of gopacket the scanner needs, with two
// priorities taken from the paper:
//
//   - Probe construction is allocation-free: builders append into caller
//     buffers so the send loop can run at line rate.
//   - Parsers treat input as attacker-controlled: every access is bounds
//     checked and malformed input yields an error, never a panic (§5
//     "Network parsers are particularly hard to implement safely").
//
// The package also models time-on-the-wire for Ethernet links (preamble,
// FCS, minimum frame size, interframe gap), which is what the §4.3
// line-rate numbers (1.488/1.389/1.276 Mpps on 1 GbE) reduce to.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Link-layer and protocol constants.
const (
	EthernetHeaderLen = 14
	EthernetFCSLen    = 4
	EthernetMinFrame  = 64 // including FCS
	EthernetPreamble  = 8  // preamble + SFD
	EthernetIFG       = 12 // interframe gap

	IPv4HeaderLen   = 20
	TCPHeaderLen    = 20 // without options
	UDPHeaderLen    = 8
	ICMPHeaderLen   = 8
	EtherTypeIPv4   = 0x0800
	ProtocolICMP    = 1
	ProtocolTCP     = 6
	ProtocolUDP     = 17
	DefaultProbeTTL = 255

	// ZMapIPID is the static IP identification value that made ZMap
	// probes fingerprintable for a decade (§2.1). Since early 2024 the
	// default is a random per-probe ID; both behaviors are supported.
	ZMapIPID = 54321
)

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Checksum computes the Internet checksum (RFC 1071) over data with an
// initial partial sum, enabling pseudo-header chaining.
func Checksum(data []byte, initial uint32) uint16 {
	sum := initial
	i := 0
	for ; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < len(data) {
		sum += uint32(data[i]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum returns the partial sum of the IPv4 pseudo-header used by
// TCP and UDP checksums.
func pseudoHeaderSum(src, dst uint32, protocol byte, length int) uint32 {
	sum := (src >> 16) + (src & 0xFFFF)
	sum += (dst >> 16) + (dst & 0xFFFF)
	sum += uint32(protocol)
	sum += uint32(length)
	return sum
}

// IPv4 is a decoded (or to-be-encoded) IPv4 header. Options are not
// supported; ZMap never sends them and drops packets that carry them.
type IPv4 struct {
	TOS      byte
	TotalLen uint16
	ID       uint16
	DontFrag bool
	TTL      byte
	Protocol byte
	Checksum uint16
	Src, Dst uint32
}

// TCP is a decoded (or to-be-encoded) TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte // raw option bytes, length multiple of 4
}

// HeaderLen returns the TCP header length including options.
func (t *TCP) HeaderLen() int { return TCPHeaderLen + len(t.Options) }

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// ICMP is a decoded ICMP header (echo and destination-unreachable forms).
type ICMP struct {
	Type, Code byte
	Checksum   uint16
	ID, Seq    uint16 // echo request/reply
}

// ICMP types the scanner cares about.
const (
	ICMPEchoReply    = 0
	ICMPDestUnreach  = 3
	ICMPEchoRequest  = 8
	ICMPTimeExceeded = 11
)

// AppendEthernet appends a 14-byte Ethernet II header.
func AppendEthernet(buf []byte, src, dst MAC, etherType uint16) []byte {
	buf = append(buf, dst[:]...)
	buf = append(buf, src[:]...)
	return binary.BigEndian.AppendUint16(buf, etherType)
}

// AppendIPv4 appends a 20-byte IPv4 header with a correct checksum.
// payloadLen is the number of bytes that will follow the header.
func AppendIPv4(buf []byte, h IPv4, payloadLen int) []byte {
	start := len(buf)
	total := IPv4HeaderLen + payloadLen
	buf = append(buf, 0x45, h.TOS)
	buf = binary.BigEndian.AppendUint16(buf, uint16(total))
	buf = binary.BigEndian.AppendUint16(buf, h.ID)
	frag := uint16(0)
	if h.DontFrag {
		frag = 0x4000
	}
	buf = binary.BigEndian.AppendUint16(buf, frag)
	buf = append(buf, h.TTL, h.Protocol, 0, 0) // checksum zeroed
	buf = binary.BigEndian.AppendUint32(buf, h.Src)
	buf = binary.BigEndian.AppendUint32(buf, h.Dst)
	ck := Checksum(buf[start:start+IPv4HeaderLen], 0)
	binary.BigEndian.PutUint16(buf[start+10:start+12], ck)
	return buf
}

// ErrBadOptions reports a TCP option slice whose length is not a
// multiple of 4, which cannot be encoded in the data-offset field. It is
// a builder error, returned rather than panicked per the package's
// "malformed input yields an error, never a panic" contract.
var ErrBadOptions = errors.New("packet: TCP options length must be a multiple of 4")

// AppendTCP appends a TCP header (with h.Options) and computes its checksum
// over the pseudo-header; payload is the TCP payload (usually empty for
// probes). It fails with ErrBadOptions when h.Options is not a multiple
// of 4 bytes, leaving buf unmodified.
func AppendTCP(buf []byte, h TCP, src, dst uint32, payload []byte) ([]byte, error) {
	start := len(buf)
	if len(h.Options)%4 != 0 {
		return buf, ErrBadOptions
	}
	dataOffset := byte((TCPHeaderLen + len(h.Options)) / 4)
	buf = binary.BigEndian.AppendUint16(buf, h.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, h.DstPort)
	buf = binary.BigEndian.AppendUint32(buf, h.Seq)
	buf = binary.BigEndian.AppendUint32(buf, h.Ack)
	buf = append(buf, dataOffset<<4, h.Flags)
	buf = binary.BigEndian.AppendUint16(buf, h.Window)
	buf = append(buf, 0, 0) // checksum
	buf = binary.BigEndian.AppendUint16(buf, h.Urgent)
	buf = append(buf, h.Options...)
	buf = append(buf, payload...)
	segLen := len(buf) - start
	sum := pseudoHeaderSum(src, dst, ProtocolTCP, segLen)
	ck := Checksum(buf[start:], sum)
	binary.BigEndian.PutUint16(buf[start+16:start+18], ck)
	return buf, nil
}

// AppendUDP appends a UDP header plus payload with checksum.
func AppendUDP(buf []byte, srcPort, dstPort uint16, src, dst uint32, payload []byte) []byte {
	start := len(buf)
	length := UDPHeaderLen + len(payload)
	buf = binary.BigEndian.AppendUint16(buf, srcPort)
	buf = binary.BigEndian.AppendUint16(buf, dstPort)
	buf = binary.BigEndian.AppendUint16(buf, uint16(length))
	buf = append(buf, 0, 0)
	buf = append(buf, payload...)
	sum := pseudoHeaderSum(src, dst, ProtocolUDP, length)
	ck := Checksum(buf[start:], sum)
	if ck == 0 {
		ck = 0xFFFF // RFC 768: transmitted as all ones
	}
	binary.BigEndian.PutUint16(buf[start+6:start+8], ck)
	return buf
}

// AppendICMPEcho appends an ICMP echo request/reply with payload.
func AppendICMPEcho(buf []byte, icmpType byte, id, seq uint16, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, icmpType, 0, 0, 0)
	buf = binary.BigEndian.AppendUint16(buf, id)
	buf = binary.BigEndian.AppendUint16(buf, seq)
	buf = append(buf, payload...)
	ck := Checksum(buf[start:], 0)
	binary.BigEndian.PutUint16(buf[start+2:start+4], ck)
	return buf
}

// Frame is a fully parsed probe or response. Exactly one of TCP, UDP, ICMP
// is non-nil for well-formed scanner traffic.
type Frame struct {
	EthSrc, EthDst MAC
	IP             IPv4
	TCP            *TCP
	UDP            *UDP
	ICMP           *ICMP
	Payload        []byte // transport payload (after options), aliased into input
}

// Parse errors. Errors wrap ErrTruncated, ErrUnsupported, or ErrChecksum
// so callers can distinguish garbage from merely-uninteresting traffic
// from bit corruption.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrUnsupported = errors.New("packet: unsupported")
	// ErrChecksum reports a frame that parsed structurally but whose IP
	// header or transport checksum does not verify (ParseVerified only;
	// plain Parse never checks). Structural faults always win: a frame
	// that is both truncated and corrupt reports ErrTruncated.
	ErrChecksum = errors.New("packet: checksum mismatch")
)

// Checksum rejections are pre-wrapped: the receive hot path rejects
// corrupt frames without allocating an error per frame.
var (
	errIPChecksum        = fmt.Errorf("%w: ip header", ErrChecksum)
	errTransportChecksum = fmt.Errorf("%w: transport segment", ErrChecksum)
)

// Parse decodes an Ethernet frame containing IPv4 and a supported
// transport. The returned Frame aliases data; callers that retain frames
// across buffer reuse must copy. Parsing is strict: header lengths,
// total-length fields, and data offsets are all validated against the
// actual buffer. Each call allocates one FrameScratch; hot paths own a
// scratch and call its Parse instead.
func Parse(data []byte) (*Frame, error) { return new(FrameScratch).Parse(data) }

// ParseVerified is Parse with checksum verification folded into the same
// pass: after the structural walk validates every offset, the IP header
// and transport checksums are summed over the already-bounded slices
// instead of re-walking the frame from scratch (the old Parse-then-
// VerifyChecksums shape). Rejection taxonomy: structural faults return
// ErrTruncated/ErrUnsupported exactly as Parse would; a frame Parse
// accepts that VerifyChecksums would refuse returns ErrChecksum.
func ParseVerified(data []byte) (*Frame, error) { return new(FrameScratch).ParseVerified(data) }

// FrameScratch is reusable parse state for a zero-allocation parse: the
// Frame and its transport-header structs live in the scratch and are
// re-pointed into the Frame each parse. A scratch is single-owner — one
// per receive worker or simulated link batch, never shared.
type FrameScratch struct {
	frame Frame
	tcp   TCP
	udp   UDP
	icmp  ICMP
}

// Parse parses data into the scratch with the same semantics as the
// package-level Parse, without its allocation. The returned Frame (and
// everything it points to) is valid only until the next call on this
// scratch.
func (s *FrameScratch) Parse(data []byte) (*Frame, error) { return s.parse(data, false) }

// ParseVerified parses and checksum-verifies data into the scratch with
// the same semantics as the package-level ParseVerified, without its
// allocation. The returned Frame (and everything it points to) is valid
// only until the next call on this scratch.
func (s *FrameScratch) ParseVerified(data []byte) (*Frame, error) { return s.parse(data, true) }

func (s *FrameScratch) parse(data []byte, verify bool) (*Frame, error) {
	// Reset first: no header pointer from the previous parse survives.
	s.frame = Frame{}
	if err := parseInto(s, data, verify); err != nil {
		// Never hand back a half-populated frame: a caller that misses
		// the error must get a nil dereference, not silently read
		// whichever headers happened to parse before the fault.
		return nil, err
	}
	return &s.frame, nil
}

func parseInto(sc *FrameScratch, data []byte, verify bool) error {
	f := &sc.frame
	if len(data) < EthernetHeaderLen {
		return fmt.Errorf("%w: frame %d bytes", ErrTruncated, len(data))
	}
	copy(f.EthDst[:], data[0:6])
	copy(f.EthSrc[:], data[6:12])
	etherType := binary.BigEndian.Uint16(data[12:14])
	if etherType != EtherTypeIPv4 {
		return fmt.Errorf("%w: ethertype 0x%04x", ErrUnsupported, etherType)
	}
	return parseIPv4(sc, data[EthernetHeaderLen:], verify)
}

func parseIPv4(sc *FrameScratch, data []byte, verify bool) error {
	f := &sc.frame
	if len(data) < IPv4HeaderLen {
		return fmt.Errorf("%w: ip header %d bytes", ErrTruncated, len(data))
	}
	vihl := data[0]
	if vihl>>4 != 4 {
		return fmt.Errorf("%w: ip version %d", ErrUnsupported, vihl>>4)
	}
	ihl := int(vihl&0x0F) * 4
	if ihl < IPv4HeaderLen {
		return fmt.Errorf("%w: ihl %d", ErrUnsupported, ihl)
	}
	if len(data) < ihl {
		return fmt.Errorf("%w: ip header claims %d bytes, have %d", ErrTruncated, ihl, len(data))
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl {
		return fmt.Errorf("%w: total length %d < header %d", ErrUnsupported, total, ihl)
	}
	if total > len(data) {
		return fmt.Errorf("%w: total length %d, have %d", ErrTruncated, total, len(data))
	}
	frag := binary.BigEndian.Uint16(data[6:8])
	if frag&0x1FFF != 0 || frag&0x2000 != 0 {
		return fmt.Errorf("%w: fragmented packet", ErrUnsupported)
	}
	f.IP = IPv4{
		TOS:      data[1],
		TotalLen: uint16(total),
		ID:       binary.BigEndian.Uint16(data[4:6]),
		DontFrag: frag&0x4000 != 0,
		TTL:      data[8],
		Protocol: data[9],
		Checksum: binary.BigEndian.Uint16(data[10:12]),
		Src:      binary.BigEndian.Uint32(data[12:16]),
		Dst:      binary.BigEndian.Uint32(data[16:20]),
	}
	payload := data[ihl:total]
	var err error
	switch f.IP.Protocol {
	case ProtocolTCP:
		err = parseTCP(f, &sc.tcp, payload)
	case ProtocolUDP:
		err = parseUDP(f, &sc.udp, payload)
	case ProtocolICMP:
		err = parseICMP(f, &sc.icmp, payload)
	default:
		return fmt.Errorf("%w: ip protocol %d", ErrUnsupported, f.IP.Protocol)
	}
	if err != nil || !verify {
		return err
	}
	// Single-pass verification: the structural walk above already
	// validated ihl and total against the buffer, so the checksum sums
	// run over pre-bounded slices. Ordering matters for the rejection
	// taxonomy — no checksum verdict is reached unless the whole frame
	// parsed, matching the historical Parse-then-VerifyChecksums shape.
	if Checksum(data[:ihl], 0) != 0 {
		return errIPChecksum
	}
	seg := data[ihl:total]
	switch f.IP.Protocol {
	case ProtocolTCP:
		if Checksum(seg, pseudoHeaderSum(f.IP.Src, f.IP.Dst, ProtocolTCP, len(seg))) != 0 {
			return errTransportChecksum
		}
	case ProtocolUDP:
		// A zero UDP checksum means the sender elected not to checksum
		// (RFC 768); accept it, as VerifyChecksums always has.
		if f.UDP.Checksum != 0 &&
			Checksum(seg, pseudoHeaderSum(f.IP.Src, f.IP.Dst, ProtocolUDP, len(seg))) != 0 {
			return errTransportChecksum
		}
	case ProtocolICMP:
		if Checksum(seg, 0) != 0 {
			return errTransportChecksum
		}
	}
	return nil
}

func parseTCP(f *Frame, t *TCP, data []byte) error {
	if len(data) < TCPHeaderLen {
		return fmt.Errorf("%w: tcp header %d bytes", ErrTruncated, len(data))
	}
	offset := int(data[12]>>4) * 4
	if offset < TCPHeaderLen {
		return fmt.Errorf("%w: tcp data offset %d", ErrUnsupported, offset)
	}
	if offset > len(data) {
		return fmt.Errorf("%w: tcp offset %d, have %d", ErrTruncated, offset, len(data))
	}
	*t = TCP{
		SrcPort:  binary.BigEndian.Uint16(data[0:2]),
		DstPort:  binary.BigEndian.Uint16(data[2:4]),
		Seq:      binary.BigEndian.Uint32(data[4:8]),
		Ack:      binary.BigEndian.Uint32(data[8:12]),
		Flags:    data[13] & 0x3F,
		Window:   binary.BigEndian.Uint16(data[14:16]),
		Checksum: binary.BigEndian.Uint16(data[16:18]),
		Urgent:   binary.BigEndian.Uint16(data[18:20]),
		Options:  data[TCPHeaderLen:offset],
	}
	f.TCP = t
	f.Payload = data[offset:]
	return nil
}

func parseUDP(f *Frame, u *UDP, data []byte) error {
	if len(data) < UDPHeaderLen {
		return fmt.Errorf("%w: udp header %d bytes", ErrTruncated, len(data))
	}
	length := int(binary.BigEndian.Uint16(data[4:6]))
	if length < UDPHeaderLen {
		return fmt.Errorf("%w: udp length %d", ErrUnsupported, length)
	}
	if length > len(data) {
		return fmt.Errorf("%w: udp length %d, have %d", ErrTruncated, length, len(data))
	}
	*u = UDP{
		SrcPort:  binary.BigEndian.Uint16(data[0:2]),
		DstPort:  binary.BigEndian.Uint16(data[2:4]),
		Length:   uint16(length),
		Checksum: binary.BigEndian.Uint16(data[6:8]),
	}
	f.UDP = u
	f.Payload = data[UDPHeaderLen:length]
	return nil
}

func parseICMP(f *Frame, ic *ICMP, data []byte) error {
	if len(data) < ICMPHeaderLen {
		return fmt.Errorf("%w: icmp header %d bytes", ErrTruncated, len(data))
	}
	*ic = ICMP{
		Type:     data[0],
		Code:     data[1],
		Checksum: binary.BigEndian.Uint16(data[2:4]),
		ID:       binary.BigEndian.Uint16(data[4:6]),
		Seq:      binary.BigEndian.Uint16(data[6:8]),
	}
	f.ICMP = ic
	f.Payload = data[ICMPHeaderLen:]
	return nil
}

// FlowKey extracts the flow identity a response will be classified
// under — the (responder IP, scanned port) pair every probe module keys
// its Result by: the source address and source port for TCP and UDP
// replies, (source, 0) for ICMP, except destination-unreachable errors,
// which are keyed by the quoted probe's destination so a UDP reply and
// the port-unreachable for the same target agree. A sharded receive
// path fans frames out by this key so every response for one target
// lands on the same worker and its dedup shard.
//
// FlowKey reads only the fixed offsets it needs, bounds-checked and
// allocation-free. Frames too short or non-IPv4 return (0, 0); the
// value for any frame the parser would reject is irrelevant (rejected
// frames never reach dedup), it only must be deterministic.
func FlowKey(data []byte) (ip uint32, port uint16) {
	if len(data) < EthernetHeaderLen+IPv4HeaderLen {
		return 0, 0
	}
	b := data[EthernetHeaderLen:]
	if b[0]>>4 != 4 {
		return 0, 0
	}
	ihl := int(b[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl+4 {
		return 0, 0
	}
	src := binary.BigEndian.Uint32(b[12:16])
	switch b[9] {
	case ProtocolTCP, ProtocolUDP:
		return src, binary.BigEndian.Uint16(b[ihl : ihl+2])
	case ProtocolICMP:
		if b[ihl] != ICMPDestUnreach || len(b) < ihl+ICMPHeaderLen+IPv4HeaderLen+8 {
			return src, 0
		}
		// Same quote layout ParseUnreachQuote validates: the ports are
		// only meaningful for TCP/UDP quotes, which is exactly when a
		// classifier would use them.
		q := b[ihl+ICMPHeaderLen:]
		if q[0]>>4 != 4 {
			return src, 0
		}
		qihl := int(q[0]&0x0F) * 4
		if qihl < IPv4HeaderLen || len(q) < qihl+4 {
			return src, 0
		}
		switch q[9] {
		case ProtocolTCP, ProtocolUDP:
			return binary.BigEndian.Uint32(q[16:20]), binary.BigEndian.Uint16(q[qihl+2 : qihl+4])
		}
		return src, 0
	}
	return src, 0
}

// VerifyIPv4Checksum reports whether the IPv4 header checksum in an
// encoded frame (starting at the Ethernet header) is valid.
func VerifyIPv4Checksum(frame []byte) bool {
	if len(frame) < EthernetHeaderLen+IPv4HeaderLen {
		return false
	}
	ihl := int(frame[EthernetHeaderLen]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(frame) < EthernetHeaderLen+ihl {
		return false
	}
	return Checksum(frame[EthernetHeaderLen:EthernetHeaderLen+ihl], 0) == 0
}

// VerifyChecksums reports whether both the IPv4 header checksum and the
// transport (TCP/UDP/ICMP) checksum in an encoded frame are valid. The
// receive path uses it to discard bit-corrupted frames that still parse:
// a raw-socket receiver sees frames the kernel never checksummed, so a
// stateless scanner must do its own verification before validation.
// Frames too short or oddly shaped verify false; a UDP checksum of zero
// (legitimately unchecksummed per RFC 768) is accepted.
func VerifyChecksums(frame []byte) bool {
	if len(frame) < EthernetHeaderLen+IPv4HeaderLen {
		return false
	}
	ip := frame[EthernetHeaderLen:]
	ihl := int(ip[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return false
	}
	if Checksum(ip[:ihl], 0) != 0 {
		return false
	}
	total := int(binary.BigEndian.Uint16(ip[2:4]))
	if total < ihl || total > len(ip) {
		return false
	}
	seg := ip[ihl:total]
	src := binary.BigEndian.Uint32(ip[12:16])
	dst := binary.BigEndian.Uint32(ip[16:20])
	switch ip[9] {
	case ProtocolTCP:
		if len(seg) < TCPHeaderLen {
			return false
		}
		return Checksum(seg, pseudoHeaderSum(src, dst, ProtocolTCP, len(seg))) == 0
	case ProtocolUDP:
		if len(seg) < UDPHeaderLen {
			return false
		}
		if binary.BigEndian.Uint16(seg[6:8]) == 0 {
			return true // sender elected not to checksum
		}
		return Checksum(seg, pseudoHeaderSum(src, dst, ProtocolUDP, len(seg))) == 0
	case ProtocolICMP:
		if len(seg) < ICMPHeaderLen {
			return false
		}
		return Checksum(seg, 0) == 0
	default:
		return false
	}
}

// WireLen returns the number of byte times a frame of frameLen bytes
// (Ethernet header through payload, excluding FCS) occupies on the wire:
// preamble + padded frame + FCS + interframe gap. Frames below the
// Ethernet minimum are padded.
func WireLen(frameLen int) int {
	withFCS := frameLen + EthernetFCSLen
	if withFCS < EthernetMinFrame {
		withFCS = EthernetMinFrame
	}
	return EthernetPreamble + withFCS + EthernetIFG
}

// LineRatePPS returns the maximum packets per second a link of linkBits
// bits/s can carry for frames of frameLen bytes (excluding FCS).
func LineRatePPS(linkBits float64, frameLen int) float64 {
	return linkBits / (8 * float64(WireLen(frameLen)))
}
