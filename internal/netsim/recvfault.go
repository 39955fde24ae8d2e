package netsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zmapgo/internal/packet"
)

// RecvFaultClass labels one receive-path fault the injector can apply.
type RecvFaultClass int

const (
	// RecvFaultTruncate cuts a response frame short mid-header or
	// mid-segment (a mangled capture or a runt frame).
	RecvFaultTruncate RecvFaultClass = iota
	// RecvFaultCorrupt flips one to three random bits (path corruption
	// that slipped past link-layer CRC).
	RecvFaultCorrupt
	// RecvFaultDuplicate delivers the same frame twice back to back
	// (retransmission, or a tap seeing both directions).
	RecvFaultDuplicate
	// RecvFaultReorder delays a frame so later traffic overtakes it.
	RecvFaultReorder
	// RecvFaultSpoof injects a structurally valid, correctly checksummed
	// SYN-ACK that answers no probe — the unsolicited/forged traffic a
	// scanner's stateless validator exists to reject.
	RecvFaultSpoof
	numRecvFaultClasses
)

// String names the fault class for logs and stats.
func (c RecvFaultClass) String() string {
	switch c {
	case RecvFaultTruncate:
		return "truncate"
	case RecvFaultCorrupt:
		return "corrupt"
	case RecvFaultDuplicate:
		return "duplicate"
	case RecvFaultReorder:
		return "reorder"
	case RecvFaultSpoof:
		return "spoof"
	}
	return "unknown"
}

// RecvFaultConfig describes a seeded receive-path fault schedule. The
// zero value injects nothing. Probabilities are per delivered frame and
// evaluated independently, so aggressive configurations compose (a frame
// can be duplicated and its copy later truncated is NOT modeled — each
// frame suffers at most one mangling fault, chosen by the first roll
// that fires, plus optional duplication/spoof side effects — keeping the
// injected-fault counters meaningful per class).
type RecvFaultConfig struct {
	// Seed keys the injector's private RNG; equal seeds replay the same
	// fault schedule against the same traffic order.
	Seed int64

	// TruncateProb cuts the frame at a random byte boundary.
	TruncateProb float64
	// CorruptProb flips 1–3 random bits in a copy of the frame.
	CorruptProb float64
	// DuplicateProb delivers the frame, then delivers it again.
	DuplicateProb float64
	// ReorderProb withholds the frame for ReorderDelay so subsequent
	// frames overtake it.
	ReorderProb float64
	// ReorderDelay is how long reordered frames are held (default 2ms).
	ReorderDelay time.Duration
	// SpoofProb additionally injects a forged SYN-ACK alongside the real
	// frame: valid Ethernet/IPv4/TCP structure and checksums, but random
	// source address and acknowledgment number, so it must die in
	// validation, never in parsing.
	SpoofProb float64
}

func (c RecvFaultConfig) enabled() bool {
	return c.TruncateProb > 0 || c.CorruptProb > 0 || c.DuplicateProb > 0 ||
		c.ReorderProb > 0 || c.SpoofProb > 0
}

// RecvFaultTransport decorates a Transport's receive path with seeded
// fault injection; the send path, release and stats are the wrapped
// transport's own. A single pump goroutine owns the RNG and the output
// channel, so the schedule is deterministic for a given traffic order.
// The injector's own emissions (spoofs, duplicate copies) come from the
// pool Link releases into, so everything it delivers releases uniformly.
type RecvFaultTransport struct {
	Transport
	cfg RecvFaultConfig
	out chan []byte

	stop     chan struct{}
	stopOnce sync.Once
	pending  sync.WaitGroup

	injected [numRecvFaultClasses]atomic.Uint64
}

// NewRecvFaultTransport wraps inner. The pump goroutine runs until Stop
// is called; an idle pump parked on the inner Recv channel is harmless,
// matching the channel's never-closed contract.
func NewRecvFaultTransport(inner Transport, cfg RecvFaultConfig) *RecvFaultTransport {
	if cfg.ReorderDelay <= 0 {
		cfg.ReorderDelay = 2 * time.Millisecond
	}
	t := &RecvFaultTransport{
		Transport: inner,
		cfg:       cfg,
		out:       make(chan []byte, 4096),
		stop:      make(chan struct{}),
	}
	go t.pump()
	return t
}

// Recv returns the fault-injected response stream.
func (t *RecvFaultTransport) Recv() <-chan []byte { return t.out }

// RecvBatch drains up to len(dst) queued fault-injected frames without
// blocking, mirroring Link.RecvBatch. Fault decisions were already made
// at emit time, so batching changes delivery granularity, not the
// schedule.
func (t *RecvFaultTransport) RecvBatch(dst [][]byte) int {
	n := 0
	for n < len(dst) {
		select {
		case frame := <-t.out:
			dst[n] = frame
			n++
		default:
			return n
		}
	}
	return n
}

// Stop ends the pump goroutine. Frames already in flight (reorder
// timers) still deliver.
func (t *RecvFaultTransport) Stop() { t.stopOnce.Do(func() { close(t.stop) }) }

// Injected reports how many faults of the given class were applied.
func (t *RecvFaultTransport) Injected(c RecvFaultClass) uint64 {
	return t.injected[c].Load()
}

// InjectedTotal reports all applied faults across classes.
func (t *RecvFaultTransport) InjectedTotal() uint64 {
	var n uint64
	for i := range t.injected {
		n += t.injected[i].Load()
	}
	return n
}

func (t *RecvFaultTransport) pump() {
	rng := newScheduleRNG(t.cfg.Seed)
	for {
		select {
		case <-t.stop:
			return
		case frame := <-t.Transport.Recv():
			t.process(rng, frame)
		}
	}
}

func (t *RecvFaultTransport) process(rng *rand.Rand, frame []byte) {
	cfg := &t.cfg

	// Spoof is additive: the real frame still goes through.
	if cfg.SpoofProb > 0 && rng.Float64() < cfg.SpoofProb {
		if spoofed := spoofFrame(rng, frame); spoofed != nil {
			t.injected[RecvFaultSpoof].Add(1)
			t.emit(spoofed)
		}
	}

	// At most one mangling fault per frame: first roll that fires wins.
	// The pump owns the frame here — the producer handed it off and the
	// consumer has not seen it — so truncation and corruption mutate it
	// in place rather than allocating a copy. Truncation keeps the
	// backing array's capacity, so the buffer still recycles.
	switch {
	case cfg.TruncateProb > 0 && rng.Float64() < cfg.TruncateProb:
		t.injected[RecvFaultTruncate].Add(1)
		if len(frame) > 1 {
			frame = frame[:1+rng.Intn(len(frame)-1)]
		}
	case cfg.CorruptProb > 0 && rng.Float64() < cfg.CorruptProb:
		t.injected[RecvFaultCorrupt].Add(1)
		corruptFrame(rng, frame)
	}

	if cfg.DuplicateProb > 0 && rng.Float64() < cfg.DuplicateProb {
		t.injected[RecvFaultDuplicate].Add(1)
		// The duplicate is a pooled copy, never the same slice twice:
		// the consumer releases every delivered frame, and releasing one
		// buffer into the pool twice would hand it to two owners.
		t.emit(append(getFrame(), frame...))
	}

	if cfg.ReorderProb > 0 && rng.Float64() < cfg.ReorderProb {
		t.injected[RecvFaultReorder].Add(1)
		held := frame
		t.pending.Add(1)
		time.AfterFunc(cfg.ReorderDelay, func() {
			defer t.pending.Done()
			t.emit(held)
		})
		return
	}
	t.emit(frame)
}

// emit delivers to the output channel, dropping when the consumer has
// stopped (mirrors the ring-drop behavior of the underlying link).
func (t *RecvFaultTransport) emit(frame []byte) {
	select {
	case t.out <- frame:
	case <-t.stop:
		PutFrame(frame)
	}
}

// Drain waits for held (reordered) frames to be released.
func (t *RecvFaultTransport) Drain() { t.pending.Wait() }

// corruptFrame flips 1–3 random bits in frame, in place.
func corruptFrame(rng *rand.Rand, frame []byte) {
	if len(frame) == 0 {
		return
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		frame[rng.Intn(len(frame))] ^= 1 << rng.Intn(8)
	}
}

// spoofFrame builds a forged SYN-ACK addressed like the template frame:
// same destination (the scanner) so it reaches the receive path, a
// random source address and random sequence/ack numbers so stateless
// validation must reject it. Structure and checksums are valid — the
// whole point is to exercise the validator, not the parser. Returns nil
// when the template is not an IPv4/TCP frame to mirror.
func spoofFrame(rng *rand.Rand, template []byte) []byte {
	f, err := packet.Parse(template)
	if err != nil || f.TCP == nil {
		return nil
	}
	buf := getFrame()
	buf = packet.AppendEthernet(buf, hostMAC, f.EthDst, packet.EtherTypeIPv4)
	src := rng.Uint32()
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID:       uint16(rng.Uint32()),
		TTL:      64,
		Protocol: packet.ProtocolTCP,
		Src:      src,
		Dst:      f.IP.Dst,
	}, packet.TCPHeaderLen)
	buf, _ = packet.AppendTCP(buf, packet.TCP{
		SrcPort: f.TCP.SrcPort,
		DstPort: f.TCP.DstPort,
		Seq:     rng.Uint32(),
		Ack:     rng.Uint32(),
		Flags:   packet.FlagSYN | packet.FlagACK,
		Window:  65535,
	}, src, f.IP.Dst, nil) // no options; cannot fail
	return buf
}
