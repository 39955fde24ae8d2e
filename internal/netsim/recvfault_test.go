package netsim

import (
	"testing"
	"time"

	"zmapgo/internal/packet"
)

// chanTransport is a minimal inner transport for injector tests.
type chanTransport struct {
	ch   chan []byte
	sent uint64
}

func (c *chanTransport) SendBatch(frames [][]byte) (int, error) {
	c.sent += uint64(len(frames))
	return len(frames), nil
}
func (c *chanTransport) Recv() <-chan []byte    { return c.ch }
func (c *chanTransport) RecvBatch([][]byte) int { return 0 }
func (c *chanTransport) Release([]byte)         {}
func (c *chanTransport) Stats() (uint64, uint64, uint64) {
	return c.sent, uint64(len(c.ch)), 0
}

// buildResponseFrame makes a well-formed SYN-ACK like the simulator
// produces, addressed to the scanner at dst.
func buildResponseFrame(src, dst uint32) []byte {
	buf := make([]byte, 0, 64)
	buf = packet.AppendEthernet(buf, hostMAC, packet.MAC{2, 0, 0, 0, 0, 1}, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		TTL: 64, Protocol: packet.ProtocolTCP, Src: src, Dst: dst,
	}, packet.TCPHeaderLen)
	buf, _ = packet.AppendTCP(buf, packet.TCP{
		SrcPort: 443, DstPort: 32768, Seq: 7, Ack: 42,
		Flags: packet.FlagSYN | packet.FlagACK, Window: 65535,
	}, src, dst, nil)
	return buf
}

func collect(t *testing.T, ch <-chan []byte, n int) [][]byte {
	t.Helper()
	var out [][]byte
	deadline := time.After(2 * time.Second)
	for len(out) < n {
		select {
		case f := <-ch:
			out = append(out, f)
		case <-deadline:
			t.Fatalf("timed out after %d of %d frames", len(out), n)
		}
	}
	return out
}

func TestRecvFaultDuplicateAndTruncate(t *testing.T) {
	inner := &chanTransport{ch: make(chan []byte, 16)}
	ft := NewRecvFaultTransport(inner, RecvFaultConfig{Seed: 1, DuplicateProb: 1})
	defer ft.Stop()
	orig := buildResponseFrame(0x0A000001, 0xC0000201)
	inner.ch <- orig
	got := collect(t, ft.Recv(), 2)
	if string(got[0]) != string(orig) || string(got[1]) != string(orig) {
		t.Error("duplicate fault must deliver the identical frame twice")
	}
	if ft.Injected(RecvFaultDuplicate) != 1 {
		t.Errorf("duplicate counter = %d", ft.Injected(RecvFaultDuplicate))
	}

	inner2 := &chanTransport{ch: make(chan []byte, 16)}
	trunc := NewRecvFaultTransport(inner2, RecvFaultConfig{Seed: 1, TruncateProb: 1})
	defer trunc.Stop()
	inner2.ch <- orig
	short := collect(t, trunc.Recv(), 1)[0]
	if len(short) >= len(orig) {
		t.Errorf("truncate fault left %d of %d bytes", len(short), len(orig))
	}
}

func TestRecvFaultCorruptBreaksChecksum(t *testing.T) {
	inner := &chanTransport{ch: make(chan []byte, 16)}
	ft := NewRecvFaultTransport(inner, RecvFaultConfig{Seed: 3, CorruptProb: 1})
	defer ft.Stop()
	// Corruption flips random bits; over many frames, the overwhelming
	// majority must fail checksum verification (a flip confined to the
	// Ethernet header is the rare exception).
	failed := 0
	const n = 50
	for i := 0; i < n; i++ {
		inner.ch <- buildResponseFrame(0x0A000000+uint32(i), 0xC0000201)
		got := collect(t, ft.Recv(), 1)[0]
		if !packet.VerifyChecksums(got) {
			failed++
		}
	}
	if failed < n/2 {
		t.Errorf("only %d/%d corrupted frames failed checksum verification", failed, n)
	}
	if ft.Injected(RecvFaultCorrupt) != n {
		t.Errorf("corrupt counter = %d, want %d", ft.Injected(RecvFaultCorrupt), n)
	}
}

func TestRecvFaultSpoofIsValidButUnverifiable(t *testing.T) {
	inner := &chanTransport{ch: make(chan []byte, 16)}
	ft := NewRecvFaultTransport(inner, RecvFaultConfig{Seed: 5, SpoofProb: 1})
	defer ft.Stop()
	orig := buildResponseFrame(0x0A000001, 0xC0000201)
	inner.ch <- orig
	got := collect(t, ft.Recv(), 2) // spoof + original
	var spoofed []byte
	for _, f := range got {
		if string(f) != string(orig) {
			spoofed = f
		}
	}
	if spoofed == nil {
		t.Fatal("no spoofed frame delivered alongside the original")
	}
	f, err := packet.Parse(spoofed)
	if err != nil || f.TCP == nil {
		t.Fatalf("spoofed frame must parse cleanly: %v", err)
	}
	if !packet.VerifyChecksums(spoofed) {
		t.Error("spoofed frame must carry valid checksums (it exists to exercise validation, not parsing)")
	}
	if f.IP.Dst != 0xC0000201 {
		t.Error("spoofed frame must target the scanner address")
	}
	if f.IP.Src == 0x0A000001 {
		t.Error("spoofed frame kept the real responder source")
	}
}

func TestRecvFaultReorderDelaysDelivery(t *testing.T) {
	inner := &chanTransport{ch: make(chan []byte, 16)}
	ft := NewRecvFaultTransport(inner, RecvFaultConfig{
		Seed: 9, ReorderProb: 1, ReorderDelay: 20 * time.Millisecond,
	})
	defer ft.Stop()
	inner.ch <- buildResponseFrame(0x0A000001, 0xC0000201)
	start := time.Now()
	collect(t, ft.Recv(), 1)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("reordered frame arrived after %v, want >= ~20ms hold", elapsed)
	}
	if ft.Injected(RecvFaultReorder) != 1 {
		t.Errorf("reorder counter = %d", ft.Injected(RecvFaultReorder))
	}
}

func TestRecvFaultDeterministicSchedule(t *testing.T) {
	run := func() [numRecvFaultClasses]uint64 {
		inner := &chanTransport{ch: make(chan []byte, 64)}
		ft := NewRecvFaultTransport(inner, RecvFaultConfig{
			Seed: 42, TruncateProb: 0.3, CorruptProb: 0.3, DuplicateProb: 0.3, SpoofProb: 0.3,
		})
		defer ft.Stop()
		delivered := 0
		for i := 0; i < 40; i++ {
			inner.ch <- buildResponseFrame(0x0A000000+uint32(i), 0xC0000201)
		}
		// Drain whatever comes out for a bounded time; counts are what matter.
		timeout := time.After(500 * time.Millisecond)
	loop:
		for {
			select {
			case <-ft.Recv():
				delivered++
			case <-timeout:
				break loop
			}
		}
		var got [numRecvFaultClasses]uint64
		for c := RecvFaultClass(0); c < numRecvFaultClasses; c++ {
			got[c] = ft.Injected(c)
		}
		return got
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different schedules: %v vs %v", a, b)
	}
	var total uint64
	for _, n := range a {
		total += n
	}
	if total == 0 {
		t.Error("aggressive config injected nothing")
	}
}
