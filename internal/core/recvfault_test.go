package core

import (
	"context"
	"testing"
	"time"

	"zmapgo/internal/netsim"
	"zmapgo/internal/packet"
)

// TestScanSurvivesAggressiveRecvFaults drives the full receive-fault
// taxonomy — truncation, bit corruption, duplication, reordering, and
// spoofed responses — at aggressive rates through a complete scan. The
// engine must never panic, never report a false positive (a validator
// bypass), and must account for every rejected frame in the right
// per-class counter.
func TestScanSurvivesAggressiveRecvFaults(t *testing.T) {
	in, cfg, sink := testbed(t, 140, "80")
	cfg.SourceIP = 0xC0A80002
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	ft := netsim.NewRecvFaultTransport(link, netsim.RecvFaultConfig{
		Seed:          140,
		TruncateProb:  0.25,
		CorruptProb:   0.25,
		DuplicateProb: 0.25,
		ReorderProb:   0.25,
		ReorderDelay:  time.Millisecond,
		SpoofProb:     0.25,
	})
	defer ft.Stop()

	s, err := New(cfg, ft)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.PacketsSent != 16384 {
		t.Errorf("sent %d probes, want 16384 (faults are receive-side only)", meta.PacketsSent)
	}
	assertBooksBalance(t, meta, s.Registry(), uint64(len(sink.all())))

	// No validator bypass: every unique success is a true service.
	opts := packet.BuildOptions(cfg.OptionLayout, 0)
	for _, r := range sink.all() {
		if !r.Success || r.Repeat {
			continue
		}
		if !in.ExpectedSYNACK(r.IP, 80, opts) {
			t.Errorf("false positive under receive faults: %s", r.Saddr())
		}
	}

	// Every fault class fired and was rejected into its counter.
	for _, c := range []netsim.RecvFaultClass{
		netsim.RecvFaultTruncate, netsim.RecvFaultCorrupt,
		netsim.RecvFaultDuplicate, netsim.RecvFaultReorder, netsim.RecvFaultSpoof,
	} {
		if ft.Injected(c) == 0 {
			t.Errorf("fault class %v never fired at prob 0.25", c)
		}
	}
	if meta.RecvTruncated == 0 {
		t.Error("no truncated frames counted despite truncation faults")
	}
	if meta.RecvChecksumFail == 0 {
		t.Error("no checksum failures counted despite corruption faults")
	}
	if meta.RecvInvalid == 0 {
		t.Error("no invalid frames counted despite spoof faults")
	}
	// Spoofed frames must all die in validation (recv_invalid ≥ spoofs
	// that reached the receiver, minus any mangled by a later fault —
	// but spoofs are emitted unmangled, so ≥ is exact here modulo ring
	// drops, which the lossless buffered link does not produce).
	if got, want := meta.RecvInvalid, ft.Injected(netsim.RecvFaultSpoof); got < want/2 {
		t.Errorf("recv_invalid = %d, expected at least half of %d spoofs", got, want)
	}

	// Duplicates were suppressed, not reported as new successes.
	if meta.Duplicates == 0 {
		t.Error("no duplicates recorded despite duplication faults")
	}
	seen := map[string]bool{}
	for _, r := range sink.all() {
		if r.Success && !r.Repeat {
			if seen[r.Saddr()] {
				t.Errorf("%s reported as a new success twice", r.Saddr())
			}
			seen[r.Saddr()] = true
		}
	}
}
