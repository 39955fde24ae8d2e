package netsim

import (
	"testing"

	"zmapgo/internal/packet"
)

// drainPool empties the shared frame pool so reuse tests start from a
// known state.
func drainPool() {
	for {
		select {
		case <-framePool:
		default:
			return
		}
	}
}

func TestFramePoolRecycles(t *testing.T) {
	drainPool()
	b := make([]byte, frameBufCap)
	PutFrame(b)
	got := getFrame()
	if len(got) != 0 || cap(got) < frameBufCap {
		t.Fatalf("getFrame returned len %d cap %d", len(got), cap(got))
	}
	got = append(got, 1)
	if &got[0] != &b[0] {
		t.Error("pooled buffer was not reused")
	}
}

func TestFramePoolRejectsForeignBuffers(t *testing.T) {
	drainPool()
	PutFrame(make([]byte, frameBufCap-1)) // too small: a caller-owned slice
	select {
	case <-framePool:
		t.Error("undersized buffer entered the pool")
	default:
	}
}

// TestRecvPathReusesPooledBuffers pins the perf fix end to end: a
// response delivered by the link is built into a buffer the consumer
// previously released, not a fresh allocation.
func TestRecvPathReusesPooledBuffers(t *testing.T) {
	in := New(lossless(91))
	link := NewLink(in, 64, 0)
	defer link.Close()

	var ip uint32
	for ; ; ip++ {
		if in.ExpectedSYNACK(ip, 80, packet.BuildOptions(packet.LayoutMSS, 0)) {
			break
		}
	}
	probe := buildSYNProbe(ip, 80, packet.LayoutMSS)

	drainPool()
	marker := make([]byte, frameBufCap)
	link.Release(marker) // consumer hands a buffer back

	if err := link.Send(probe); err != nil {
		t.Fatal(err)
	}
	frame := <-link.Recv()
	if len(frame) == 0 {
		t.Fatal("empty response frame")
	}
	if &frame[0] != &marker[0] {
		t.Error("response was not built into the released buffer")
	}
	link.Release(frame)
}

// TestDuplicateFaultDeliversDistinctBuffers guards the double-release
// hazard: the duplicate fault must never deliver the same backing array
// twice, or two later responses would share one buffer.
func TestDuplicateFaultDeliversDistinctBuffers(t *testing.T) {
	in := New(lossless(92))
	link := NewLink(in, 64, 0)
	defer link.Close()
	ft := NewRecvFaultTransport(link, RecvFaultConfig{Seed: 7, DuplicateProb: 1.0})
	defer ft.Stop()

	var ip uint32
	for ; ; ip++ {
		if in.ExpectedSYNACK(ip, 80, packet.BuildOptions(packet.LayoutMSS, 0)) {
			break
		}
	}
	if err := send1(ft, buildSYNProbe(ip, 80, packet.LayoutMSS)); err != nil {
		t.Fatal(err)
	}
	a := <-ft.Recv()
	b := <-ft.Recv()
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("missing duplicate delivery")
	}
	if &a[0] == &b[0] {
		t.Fatal("duplicate delivered the same backing array twice")
	}
	ft.Release(a)
	ft.Release(b)
}
