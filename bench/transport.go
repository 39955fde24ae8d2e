package main

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"time"

	"zmapgo/internal/netsim"
	"zmapgo/internal/packet"
)

// epoch anchors every timestamp the benchmark takes: monotonic
// nanoseconds since process start, so spans from different goroutines
// share one clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// mix64 is the SplitMix64 finalizer. The benchmark keeps its own copy so
// its generated inputs do not change when the scanner's mixers do.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// flowKey packs (ip, port) the way the scanner's own tables do.
func flowKey(ip uint32, port uint16) uint64 { return uint64(ip)<<16 | uint64(port) }

// sampled picks the 1-in-256 flows whose spans are kept individually.
func sampled(key uint64) bool { return mix64(key)&255 == 0 }

// Offsets into the scanner's own SYN probe and into a TCP reply: Ethernet
// II, a 20-byte IPv4 header, then TCP.
const (
	offIPSrc   = packet.EthernetHeaderLen + 12
	offIPDst   = packet.EthernetHeaderLen + 16
	offTCP     = packet.EthernetHeaderLen + packet.IPv4HeaderLen
	offTCPSeq  = offTCP + 4
	minTCPLen  = offTCP + packet.TCPHeaderLen
	replyCap   = 64
	ringFrames = 4096
)

// probeTarget reads the (ip, port) a probe frame is aimed at.
func probeTarget(frame []byte) (uint32, uint16) {
	return binary.BigEndian.Uint32(frame[offIPDst:]), binary.BigEndian.Uint16(frame[offTCP+2:])
}

// replySource reads the (ip, port) a reply frame claims to come from,
// which is the scanned target. ok is false for non-TCP or short frames.
func replySource(frame []byte) (ip uint32, port uint16, ok bool) {
	if len(frame) < minTCPLen || frame[packet.EthernetHeaderLen+9] != packet.ProtocolTCP {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(frame[offIPSrc:]), binary.BigEndian.Uint16(frame[offTCP:]), true
}

// sendSide is what every benchmark transport shares: the send-phase
// stamps scan_pps is defined over, the accepted-frame count, and the
// recorder that is non-nil only in a traced pass.
type sendSide struct {
	first  atomic.Int64 // first SendBatch entry; 0 = none yet
	last   atomic.Int64 // latest SendBatch return
	frames atomic.Uint64
	rec    *recorder
}

func (s *sendSide) enter() int64 {
	t := now()
	if s.first.Load() == 0 {
		s.first.CompareAndSwap(0, t)
	}
	return t
}

func (s *sendSide) leave(frames [][]byte, t0 int64) {
	t1 := now()
	s.frames.Add(uint64(len(frames)))
	s.last.Store(t1)
	if s.rec != nil {
		s.rec.sendBatch(frames, t0, t1)
	}
}

// nullTransport accepts every frame and answers none, so a scan over it
// costs exactly the send path.
type nullTransport struct {
	sendSide
	recv chan []byte
}

func newNullTransport(rec *recorder) *nullTransport {
	t := &nullTransport{recv: make(chan []byte)}
	t.rec = rec
	return t
}

func (t *nullTransport) SendBatch(frames [][]byte) (int, error) {
	t.leave(frames, t.enter())
	return len(frames), nil
}

// Send exists for the scanner's retry path, which this transport never
// triggers because it never fails.
func (t *nullTransport) Send(frame []byte) error {
	_, err := t.SendBatch([][]byte{frame})
	return err
}

func (t *nullTransport) Recv() <-chan []byte    { return t.recv }
func (t *nullTransport) RecvBatch([][]byte) int { return 0 }
func (t *nullTransport) Release([]byte)         {}
func (t *nullTransport) Stats() (sent, received, dropped uint64) {
	return t.frames.Load(), 0, 0
}

// Reply classes, chosen per probe by hash of (seed, ip, port) mod 16:
// 8 SYN-ACKs delivered twice, 5 delivered once, 2 RSTs, 1 SYN-ACK whose
// acknowledgment number is wrong and must die in validation.
type replyClass int

const (
	synackTwice replyClass = iota
	synackOnce
	rst
	forged
	numClasses
)

func classOf(seed uint64, ip uint32, port uint16) replyClass {
	switch h := mix64(seed^flowKey(ip, port)) & 15; {
	case h < 8:
		return synackTwice
	case h < 13:
		return synackOnce
	case h < 15:
		return rst
	default:
		return forged
	}
}

var (
	reflectMAC  = packet.MAC{0x02, 0x5A, 0x42, 0x4E, 0x43, 0x01}
	reflectOpts = packet.BuildOptions(packet.LayoutMSS, 0)
)

// appendReply builds the reply of the given class to a probe: addresses
// and ports swapped, ack = seq+1 (or a wrong one when forged), fresh IP
// and TCP checksums. It allocates nothing when buf has replyCap room.
func appendReply(buf, probe []byte, class replyClass) []byte {
	var ethSrc packet.MAC
	copy(ethSrc[:], probe[6:12])
	src := binary.BigEndian.Uint32(probe[offIPSrc:])
	dst, dport := probeTarget(probe)
	ack := binary.BigEndian.Uint32(probe[offTCPSeq:]) + 1
	flags, opts := byte(packet.FlagSYN|packet.FlagACK), reflectOpts
	switch class {
	case rst:
		flags, opts = packet.FlagRST|packet.FlagACK, nil
	case forged:
		ack += 1 << 31
	}
	buf = packet.AppendEthernet(buf, reflectMAC, ethSrc, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID: uint16(dst), TTL: 64, Protocol: packet.ProtocolTCP, Src: dst, Dst: src,
	}, packet.TCPHeaderLen+len(opts))
	buf, _ = packet.AppendTCP(buf, packet.TCP{ // reflectOpts is 4-aligned; cannot fail
		SrcPort: dport,
		DstPort: binary.BigEndian.Uint16(probe[offTCP:]),
		Seq:     dst ^ uint32(dport),
		Ack:     ack,
		Flags:   flags,
		Window:  28960,
		Options: opts,
	}, dst, src, nil)
	return buf
}

// reflector answers every probe from the probe itself. Replies go into a
// blocking ring: a full ring stalls SendBatch, so the sender is
// back-pressured to the receiver's speed and no frame is ever dropped,
// which keeps the run's counts exact and its load closed-loop.
type reflector struct {
	sendSide
	seed  uint64
	ring  chan []byte
	free  chan []byte
	tally [numClasses]atomic.Uint64 // probes answered, per class
}

func newReflector(seed uint64, rec *recorder) *reflector {
	// The pool outnumbers the ring by what the scanner can hold between
	// Recv and Release, so taking a buffer only ever waits on the receiver.
	const pool = 2 * ringFrames
	r := &reflector{
		seed: seed,
		ring: make(chan []byte, ringFrames),
		free: make(chan []byte, pool),
	}
	r.rec = rec
	backing := make([]byte, pool*replyCap)
	for i := 0; i < pool; i++ {
		r.free <- backing[i*replyCap : i*replyCap : (i+1)*replyCap]
	}
	return r
}

func (r *reflector) SendBatch(frames [][]byte) (int, error) {
	t0 := r.enter()
	var n [numClasses]uint64
	for _, probe := range frames {
		ip, port := probeTarget(probe)
		class := classOf(r.seed, ip, port)
		n[class]++
		reply := appendReply((<-r.free)[:0], probe, class)
		if class == synackTwice {
			// Copy before the first push: once pushed, the receiver may
			// release and reuse the buffer.
			again := append((<-r.free)[:0], reply...)
			r.ring <- reply
			reply = again
		}
		r.ring <- reply
	}
	for c := range n {
		r.tally[c].Add(n[c])
	}
	r.leave(frames, t0)
	return len(frames), nil
}

func (r *reflector) Send(frame []byte) error {
	_, err := r.SendBatch([][]byte{frame})
	return err
}

func (r *reflector) Recv() <-chan []byte { return r.ring }

func (r *reflector) RecvBatch(dst [][]byte) int {
	n := 0
drain:
	for n < len(dst) {
		select {
		case dst[n] = <-r.ring:
			n++
		default:
			break drain
		}
	}
	if r.rec != nil {
		r.rec.handoff(n)
	}
	return n
}

func (r *reflector) Release(frame []byte) {
	if r.rec != nil {
		r.rec.release(frame)
	}
	r.free <- frame
}

// delivered is how many frames the reflector has produced in all.
func (r *reflector) delivered() uint64 {
	return 2*r.tally[synackTwice].Load() + r.tally[synackOnce].Load() +
		r.tally[rst].Load() + r.tally[forged].Load()
}

func (r *reflector) Stats() (sent, received, dropped uint64) {
	return r.frames.Load(), r.delivered(), 0
}

// simTransport is the shipped netsim link behind the benchmark's stamps:
// it forwards every call and adds nothing but the counting.
type simTransport struct {
	sendSide
	link *netsim.Link
}

func newSimTransport(in *netsim.Internet, rec *recorder) *simTransport {
	t := &simTransport{link: netsim.NewLink(in, 1<<16, 0)}
	t.rec = rec
	return t
}

func (t *simTransport) SendBatch(frames [][]byte) (int, error) {
	t0 := t.enter()
	n, err := t.link.SendBatch(frames)
	t.leave(frames[:n], t0)
	return n, err
}

func (t *simTransport) Send(frame []byte) error { return t.link.Send(frame) }
func (t *simTransport) Recv() <-chan []byte     { return t.link.Recv() }

func (t *simTransport) RecvBatch(dst [][]byte) int {
	n := t.link.RecvBatch(dst)
	if t.rec != nil {
		t.rec.handoff(n)
	}
	return n
}

func (t *simTransport) Release(frame []byte) {
	if t.rec != nil {
		t.rec.release(frame)
	}
	t.link.Release(frame)
}

func (t *simTransport) Stats() (sent, received, dropped uint64) { return t.link.Stats() }

// countingWriter is the sink behind every output stream: it counts bytes
// and lines and, in a traced pass, shows each result row to the recorder.
// One goroutine writes to it at a time, and counts are read after Run.
type countingWriter struct {
	bytes, lines uint64
	rec          *recorder
	partial      []byte // an unterminated row carried to the next Write
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += uint64(len(p))
	w.lines += uint64(bytes.Count(p, []byte{'\n'}))
	if w.rec != nil {
		w.partial = w.rec.rows(append(w.partial, p...))
	}
	return len(p), nil
}
