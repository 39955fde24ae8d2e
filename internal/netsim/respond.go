package netsim

import (
	"sync"
	"sync/atomic"
	"time"

	"zmapgo/internal/packet"
)

// Response is one frame a probe elicits, Delay after the probe reaches
// the destination network.
type Response struct {
	Delay time.Duration
	Frame []byte
}

// hostMAC is the Ethernet address the simulated gateway answers from.
var hostMAC = packet.MAC{0x02, 0x5A, 0x4D, 0x41, 0x50, 0x01}

// ExpectedSYNACK reports whether a SYN to (ip, port) with the given
// options would be answered with a SYN-ACK absent packet loss: either a
// middlebox fronts the prefix or an open, option-satisfied service
// listens there. Experiments use it as loss-free ground truth.
func (in *Internet) ExpectedSYNACK(ip uint32, port uint16, options []byte) bool {
	if in.Middlebox(ip) {
		return true
	}
	return in.ServiceOpen(ip, port) && in.AcceptsSYN(ip, port, options)
}

// scratchPool holds the host model's parse scratches. A scratch cannot
// live on a responder's stack: parsing points its Frame at the scratch's
// own headers, so escape analysis would move it to the heap per call.
var scratchPool = sync.Pool{New: func() any { return new(packet.FrameScratch) }}

// Respond consumes a raw probe frame and returns the responses it
// elicits, including transient loss on both directions and blowback
// duplicate trains. A nil or empty result means silence. Respond is safe
// for concurrent use.
func (in *Internet) Respond(probe []byte) []Response {
	sc := scratchPool.Get().(*packet.FrameScratch)
	out := in.appendResponses(nil, sc, probe)
	scratchPool.Put(sc)
	return out
}

// appendResponses is Respond's host model: it parses probe into sc and
// appends the responses it elicits to out. The caller owns both; sc is
// reusable once it returns.
func (in *Internet) appendResponses(out []Response, sc *packet.FrameScratch, probe []byte) []Response {
	// Dispatch on ethertype: the v6 hitlist path shares the link.
	if len(probe) >= packet.EthernetHeaderLen &&
		uint16(probe[12])<<8|uint16(probe[13]) == packet.EtherTypeIPv6 {
		return in.appendResponses6(out, probe)
	}
	f, err := sc.Parse(probe)
	if err != nil {
		return out
	}
	if in.pathLost(f.IP.Src, f.IP.Dst, in.cfg.ProbeLoss) {
		return out
	}
	switch {
	case f.TCP != nil:
		return in.respondTCP(out, f)
	case f.ICMP != nil:
		return in.respondICMP(out, f)
	case f.UDP != nil:
		return in.respondUDP(out, f, probe)
	default:
		return out
	}
}

func (in *Internet) respondTCP(out []Response, f *packet.Frame) []Response {
	if f.TCP.Flags == packet.FlagSYN|packet.FlagACK {
		return in.respondSYNACKProbe(out, f)
	}
	if f.TCP.Flags&packet.FlagSYN == 0 || f.TCP.Flags&packet.FlagACK != 0 {
		return out // other non-SYN segments are not answered at L4
	}
	ip, port := f.IP.Dst, f.TCP.DstPort
	rtt := in.RTT(ip)

	synack := in.ExpectedSYNACK(ip, port, f.TCP.Options)
	if synack {
		if !in.lost(in.cfg.ResponseLoss) {
			out = append(out, Response{Delay: rtt, Frame: in.buildTCPReply(f, packet.FlagSYN|packet.FlagACK)})
		}
		// Middleboxes answer statelessly and do not blow back.
		dups := 0
		if !in.Middlebox(ip) && in.ServiceOpen(ip, port) {
			dups = in.BlowbackCount(ip, port)
		}
		gap := in.cfg.BlowbackGap
		if gap <= 0 {
			gap = 500 * time.Millisecond
		}
		for i := 1; i <= dups; i++ {
			if in.lost(in.cfg.ResponseLoss) {
				continue
			}
			out = append(out, Response{
				Delay: rtt + time.Duration(i)*gap,
				Frame: in.buildTCPReply(f, packet.FlagSYN|packet.FlagACK),
			})
		}
		return out
	}
	// Closed port on a live host: maybe RST.
	if in.Live(ip) && uniform(in.hash(purposeRST, ip, port)) < in.cfg.RSTFraction {
		if in.lost(in.cfg.ResponseLoss) {
			return out
		}
		return append(out, Response{Delay: rtt, Frame: in.buildTCPReply(f, packet.FlagRST|packet.FlagACK)})
	}
	return out
}

// respondSYNACKProbe handles tcp_synackscan's unsolicited SYN-ACKs: an
// RFC 9293 stack with no matching connection answers with RST whose
// sequence number equals the segment's acknowledgment number. Backscatter
// liveness probing measures exactly this, so middleboxes (stateless SYN
// responders) stay silent here.
func (in *Internet) respondSYNACKProbe(out []Response, f *packet.Frame) []Response {
	ip := f.IP.Dst
	if !in.Live(ip) {
		return out
	}
	if uniform(in.hash(purposeRST+8, ip, f.TCP.DstPort)) >= in.cfg.SYNACKRSTFraction {
		return out
	}
	if in.lost(in.cfg.ResponseLoss) {
		return out
	}
	buf := getFrame()
	buf = packet.AppendEthernet(buf, hostMAC, f.EthSrc, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID:       uint16(in.hash(purposeService+34, ip, f.TCP.DstPort)),
		TTL:      64,
		Protocol: packet.ProtocolTCP,
		Src:      f.IP.Dst,
		Dst:      f.IP.Src,
	}, packet.TCPHeaderLen)
	buf, _ = packet.AppendTCP(buf, packet.TCP{
		SrcPort: f.TCP.DstPort,
		DstPort: f.TCP.SrcPort,
		Seq:     f.TCP.Ack, // RST takes its seq from the offending ack
		Flags:   packet.FlagRST,
	}, f.IP.Dst, f.IP.Src, nil) // options are empty; cannot fail
	return append(out, Response{Delay: in.RTT(ip), Frame: buf})
}

// icmpAllowed consumes one slot of a host's ICMP rate budget, returning
// false once a rate-limiting host has exhausted it.
func (in *Internet) icmpAllowed(ip uint32) bool {
	if in.cfg.ICMPRateLimitFraction <= 0 || in.cfg.ICMPRateLimit <= 0 {
		return true
	}
	if uniform(in.hash(purposeICMP+8, ip, 0)) >= in.cfg.ICMPRateLimitFraction {
		return true
	}
	in.icmpMu.Lock()
	defer in.icmpMu.Unlock()
	if in.icmpCounts[ip] >= in.cfg.ICMPRateLimit {
		return false
	}
	in.icmpCounts[ip]++
	return true
}

// mssOpts is the option block simulated hosts put on their SYN-ACKs.
// Precomputed once: responders only ever read it (AppendTCP copies it
// into the frame), so sharing is safe and saves a per-response build.
var mssOpts = packet.BuildOptions(packet.LayoutMSS, 0)

// buildTCPReply constructs the mirror-image TCP response to a probe.
func (in *Internet) buildTCPReply(f *packet.Frame, flags byte) []byte {
	ip, port := f.IP.Dst, f.TCP.DstPort
	seq := uint32(in.hash(purposeService+32, ip, port)) // host ISN, stable
	var opts []byte
	if flags&packet.FlagSYN != 0 {
		opts = mssOpts
	}
	buf := getFrame()
	buf = packet.AppendEthernet(buf, hostMAC, f.EthSrc, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID:       uint16(in.hash(purposeService+33, ip, port)),
		TTL:      64,
		Protocol: packet.ProtocolTCP,
		Src:      f.IP.Dst,
		Dst:      f.IP.Src,
	}, packet.TCPHeaderLen+len(opts))
	buf, _ = packet.AppendTCP(buf, packet.TCP{
		SrcPort: port,
		DstPort: f.TCP.SrcPort,
		Seq:     seq,
		Ack:     f.TCP.Seq + 1,
		Flags:   flags,
		Window:  28960,
		Options: opts,
	}, f.IP.Dst, f.IP.Src, nil) // BuildOptions layouts are 4-aligned; cannot fail
	return buf
}

func (in *Internet) respondICMP(out []Response, f *packet.Frame) []Response {
	if f.ICMP.Type != packet.ICMPEchoRequest {
		return out
	}
	ip := f.IP.Dst
	if !in.Live(ip) || uniform(in.hash(purposeICMP, ip, 0)) >= in.cfg.ICMPEchoFraction {
		return out
	}
	if !in.icmpAllowed(ip) {
		return out // rate-limited host went silent (Guo & Heidemann)
	}
	if in.lost(in.cfg.ResponseLoss) {
		return out
	}
	buf := getFrame()
	buf = packet.AppendEthernet(buf, hostMAC, f.EthSrc, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		TTL: 64, Protocol: packet.ProtocolICMP, Src: f.IP.Dst, Dst: f.IP.Src,
	}, packet.ICMPHeaderLen+len(f.Payload))
	buf = packet.AppendICMPEcho(buf, packet.ICMPEchoReply, f.ICMP.ID, f.ICMP.Seq, f.Payload)
	return append(out, Response{Delay: in.RTT(ip), Frame: buf})
}

// UDPServiceOpen reports whether a UDP service listens at (ip, port).
func (in *Internet) UDPServiceOpen(ip uint32, port uint16) bool {
	if !in.Live(ip) {
		return false
	}
	p := in.cfg.UDPPortOpen[port]
	return p > 0 && uniform(in.hash(purposeUDP, ip, port)) < p
}

func (in *Internet) respondUDP(out []Response, f *packet.Frame, probe []byte) []Response {
	ip, port := f.IP.Dst, f.UDP.DstPort
	rtt := in.RTT(ip)
	if in.UDPServiceOpen(ip, port) {
		if in.lost(in.cfg.ResponseLoss) {
			return out
		}
		payload := []byte("sim-udp-reply")
		if port == 53 {
			if dns := in.dnsAnswer(ip, f.Payload); dns != nil {
				payload = dns
			}
		}
		buf := getFrame()
		buf = packet.AppendEthernet(buf, hostMAC, f.EthSrc, packet.EtherTypeIPv4)
		buf = packet.AppendIPv4(buf, packet.IPv4{
			TTL: 64, Protocol: packet.ProtocolUDP, Src: f.IP.Dst, Dst: f.IP.Src,
		}, packet.UDPHeaderLen+len(payload))
		buf = packet.AppendUDP(buf, port, f.UDP.SrcPort, f.IP.Dst, f.IP.Src, payload)
		return append(out, Response{Delay: rtt, Frame: buf})
	}
	if in.Live(ip) && uniform(in.hash(purposeUDP+8, ip, port)) < in.cfg.UDPUnreachFraction {
		if in.lost(in.cfg.ResponseLoss) {
			return out
		}
		// ICMP port unreachable carrying the original IP header + 8 bytes.
		quote := probe[packet.EthernetHeaderLen:]
		if len(quote) > packet.IPv4HeaderLen+8 {
			quote = quote[:packet.IPv4HeaderLen+8]
		}
		buf := getFrame()
		buf = packet.AppendEthernet(buf, hostMAC, f.EthSrc, packet.EtherTypeIPv4)
		buf = packet.AppendIPv4(buf, packet.IPv4{
			TTL: 64, Protocol: packet.ProtocolICMP, Src: f.IP.Dst, Dst: f.IP.Src,
		}, packet.ICMPHeaderLen+len(quote))
		buf = packet.AppendICMPEcho(buf, packet.ICMPDestUnreach, 0, 0, quote)
		// Set code 3 (port unreachable): AppendICMPEcho wrote code 0.
		codeIdx := len(buf) - packet.ICMPHeaderLen - len(quote) + 1
		buf[codeIdx] = 3
		// Recompute checksum after the code change.
		icmpStart := len(buf) - packet.ICMPHeaderLen - len(quote)
		buf[icmpStart+2], buf[icmpStart+3] = 0, 0
		ck := packet.Checksum(buf[icmpStart:], 0)
		buf[icmpStart+2] = byte(ck >> 8)
		buf[icmpStart+3] = byte(ck)
		return append(out, Response{Delay: rtt, Frame: buf})
	}
	return out
}

// Link is the asynchronous attachment point between a scanner and the
// simulated Internet: SendBatch injects probes, and elicited responses arrive
// on Recv after their (scaled) simulated delays. A full receive buffer
// drops frames, modeling kernel ring-buffer drops, and the drop count is
// reported like ZMap's monitor does.
type Link struct {
	in        *Internet
	recv      chan []byte
	timeScale float64
	delays    DelayRecorder

	// cong, when set, interposes the congestion model (capacity knee,
	// unreachable generation, dark prefix) on every probe.
	cong *congestion

	// weather, when set, plays a scripted fault scenario over the link
	// (see scenario.go): forward effects before the host model responds,
	// reverse effects on each response before it is scheduled.
	// weatherObs is instrumentation attached via SetWeatherObserver,
	// kept on the link so it survives a later SetWeather.
	weather    *Weather
	weatherObs WeatherObserver

	closed  atomic.Bool
	pending sync.WaitGroup
	drops   atomic.Uint64
	sent    atomic.Uint64
	rcvd    atomic.Uint64
}

// DelayRecorder observes the simulated (unscaled) delay of each
// response the link schedules — the modeled RTT plus any blowback gap.
// Satisfied by *metrics.HistShard; a local interface keeps netsim free
// of dependencies on the instrumentation layer.
type DelayRecorder interface {
	Record(d time.Duration)
}

// NewLink attaches to the simulated Internet. buffer is the receive ring
// size; timeScale multiplies simulated delays before sleeping (use small
// values like 1e-3 to compress hundreds of milliseconds of RTT into
// test-friendly wall time; 0 delivers at once).
func NewLink(in *Internet, buffer int, timeScale float64) *Link {
	if buffer <= 0 {
		buffer = 4096
	}
	return &Link{
		in:        in,
		recv:      make(chan []byte, buffer),
		timeScale: timeScale,
	}
}

// SetDelayRecorder attaches a recorder for simulated response delays.
// Call before the scan starts; concurrent Sends observe it racily
// otherwise.
func (l *Link) SetDelayRecorder(r DelayRecorder) { l.delays = r }

// Send injects one probe frame: a one-element SendBatch.
func (l *Link) Send(frame []byte) error {
	_, err := l.SendBatch([][]byte{frame})
	return err
}

// SendBatch injects a batch of probe frames. Each frame is processed
// synchronously (loss, host model) and its responses are scheduled for
// delivery; the caller may reuse the frames' buffers once SendBatch
// returns. The batch shares one pooled parse scratch, and each frame's
// responses are appended into one small array on this stack, so a batch
// allocates nothing unless a blowback train outgrows the array. The
// in-process link never fails; the error return exists so Link
// satisfies the engine's fallible Transport contract (wrap it in a
// FaultyTransport to inject failures).
func (l *Link) SendBatch(frames [][]byte) (int, error) {
	l.sent.Add(uint64(len(frames)))
	sc := scratchPool.Get().(*packet.FrameScratch)
	var store [4]Response
	out := store[:0]
	for _, frame := range frames {
		out = l.send(out[:0], sc, frame)
	}
	scratchPool.Put(sc)
	return len(frames), nil
}

// send runs one probe through the weather, congestion and host models
// and schedules its responses. out is scratch storage for the responses;
// send returns it, grown if the probe elicited more than it held.
func (l *Link) send(out []Response, sc *packet.FrameScratch, frame []byte) []Response {
	var wEl time.Duration
	var wDst uint32
	var wIsV4 bool
	if l.weather != nil {
		wEl = l.weather.elapsed(time.Now())
		wDst, wIsV4 = frameDstIPv4(frame)
		if l.weatherSend(frame, wDst, wIsV4, wEl) {
			return out // consumed by a scripted fault
		}
	}
	if l.cong != nil && l.congest(frame) {
		return out // dropped at the knee or swallowed by a dark prefix
	}
	out = l.in.appendResponses(out, sc, frame)
	for _, r := range out {
		if l.weather != nil && wIsV4 {
			drop, extra := l.weather.reverseDecide(wDst, wEl)
			if drop {
				PutFrame(r.Frame)
				continue
			}
			r.Delay += extra
		}
		l.schedule(r.Delay, r.Frame)
	}
	return out
}

// schedule queues one response frame for delivery after the simulated
// delay (scaled by the link's timeScale).
func (l *Link) schedule(simDelay time.Duration, frame []byte) {
	if l.delays != nil {
		l.delays.Record(simDelay)
	}
	delay := time.Duration(float64(simDelay) * l.timeScale)
	if delay <= 0 {
		l.deliver(frame)
		return
	}
	l.pending.Add(1)
	time.AfterFunc(delay, func() {
		defer l.pending.Done()
		l.deliver(frame)
	})
}

// Release returns a frame previously delivered by Recv to the response
// buffer pool. Optional: unreleased frames are garbage collected.
func (l *Link) Release(frame []byte) { PutFrame(frame) }

func (l *Link) deliver(frame []byte) {
	if l.closed.Load() {
		PutFrame(frame)
		return
	}
	select {
	case l.recv <- frame:
		l.rcvd.Add(1)
	default:
		l.drops.Add(1)
		PutFrame(frame)
	}
}

// Recv returns the response stream. The channel is never closed; readers
// stop by their own timeout (the scan cooldown), as a raw socket would.
func (l *Link) Recv() <-chan []byte { return l.recv }

// RecvBatch moves up to len(dst) already-delivered frames from the
// receive ring into dst without blocking and returns the count — the
// recvmmsg analogue of SendBatch. The engine's receive path blocks on
// Recv for the first frame of a batch and fills the rest from here, so
// an idle link costs nothing extra.
func (l *Link) RecvBatch(dst [][]byte) int {
	n := 0
	for n < len(dst) {
		select {
		case frame := <-l.recv:
			dst[n] = frame
			n++
		default:
			return n
		}
	}
	return n
}

// Drain blocks until all scheduled deliveries have fired, then returns.
// Useful in tests; a real scan just waits out its cooldown.
func (l *Link) Drain() { l.pending.Wait() }

// Stats returns frames sent, delivered, and dropped at the receive ring.
func (l *Link) Stats() (sent, received, dropped uint64) {
	return l.sent.Load(), l.rcvd.Load(), l.drops.Load()
}

// Close stops future deliveries: pending timers fire harmlessly and
// return their frames to the pool. Closing twice is harmless.
func (l *Link) Close() { l.closed.Store(true) }
