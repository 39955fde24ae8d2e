package netsim

import (
	"bytes"
	"testing"
	"time"

	"zmapgo/internal/packet"
)

// TestLinkSendBatchMatchesSerialRespond pins the link to the host model:
// at timeScale 0 one batch delivers exactly the frames, with the same
// delays and in the same order, that serial Respond calls return. Both
// sides draw loss from the default population, so the draws must line up
// too.
func TestLinkSendBatchMatchesSerialRespond(t *testing.T) {
	probes := goldenProbes()
	serial := New(DefaultConfig(43))
	var want [][]byte
	var wantDelays []time.Duration
	for _, p := range probes {
		for _, r := range serial.Respond(p) {
			want = append(want, bytes.Clone(r.Frame))
			wantDelays = append(wantDelays, r.Delay)
			PutFrame(r.Frame)
		}
	}

	link := NewLink(New(DefaultConfig(43)), len(want), 0)
	defer link.Close()
	rec := &recordedDelays{}
	link.SetDelayRecorder(rec)
	if n, err := link.SendBatch(probes); n != len(probes) || err != nil {
		t.Fatalf("SendBatch = %d, %v; want %d, nil", n, err, len(probes))
	}
	got := make([][]byte, len(want)+1)
	if n := link.RecvBatch(got); n != len(want) {
		t.Fatalf("link delivered %d frames, serial Respond returned %d", n, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d differs from serial Respond", i)
		}
		if rec.ds[i] != wantDelays[i] {
			t.Fatalf("delay %d: link %v, serial Respond %v", i, rec.ds[i], wantDelays[i])
		}
		link.Release(got[i])
	}
	if sent, rcvd, dropped := link.Stats(); sent != uint64(len(probes)) || rcvd != uint64(len(want)) || dropped != 0 {
		t.Errorf("Stats = %d sent, %d received, %d dropped; want %d, %d, 0",
			sent, rcvd, dropped, len(probes), len(want))
	}
}

// mixedBatch returns 64 SYN probes to consecutive addresses on alternating
// ports 80 and 443: a window the lossless population answers with
// silence, SYN-ACKs and RSTs, and no blowback train longer than 4 frames
// (which would outgrow the link's per-frame response array).
func mixedBatch(tb testing.TB, in *Internet) [][]byte {
	tb.Helper()
	const size = 64
	for base := uint32(0x0A000000); base < 0x0A000000+1<<20; base += size {
		probes := make([][]byte, size)
		var silent, synack, rst, longest int
		for i := range probes {
			port := uint16(80)
			if i%2 == 1 {
				port = 443
			}
			probes[i] = buildSYNProbe(base+uint32(i), port, packet.LayoutMSS)
			rs := in.Respond(probes[i])
			longest = max(longest, len(rs))
			if len(rs) == 0 {
				silent++
			}
			for _, r := range rs {
				f, err := packet.Parse(r.Frame)
				if err != nil {
					tb.Fatal(err)
				}
				if f.TCP.Flags&packet.FlagRST != 0 {
					rst++
				} else {
					synack++
				}
				PutFrame(r.Frame)
			}
		}
		if silent > 0 && synack > 0 && rst > 0 && longest <= 4 {
			return probes
		}
	}
	tb.Fatal("no mixed window found")
	return nil
}

// roundTrip sends probes as one batch through the link, then drains and
// releases every frame it delivered, as the engine's receive path does.
func roundTrip(tb testing.TB, link *Link, probes, dst [][]byte) {
	if _, err := link.SendBatch(probes); err != nil {
		tb.Fatal(err)
	}
	n := link.RecvBatch(dst)
	for _, f := range dst[:n] {
		link.Release(f)
	}
}

// TestLinkSendBatchZeroAllocs pins the simulator's send path: a batch of
// probes is parsed, answered, scheduled and delivered, and the consumer
// drains and releases every frame, without one heap allocation.
func TestLinkSendBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items")
	}
	in := New(lossless(44))
	probes := mixedBatch(t, in)
	link := NewLink(in, 256, 0)
	defer link.Close()
	dst := make([][]byte, 256)
	allocs := testing.AllocsPerRun(100, func() { roundTrip(t, link, probes, dst) })
	if allocs != 0 {
		t.Errorf("Link.SendBatch allocates %.0f objects per %d-probe batch, want 0", allocs, len(probes))
	}
}

// BenchmarkLinkSendBatch measures one 64-probe batch over a mixed
// population through the link, consumer drain and release included.
func BenchmarkLinkSendBatch(b *testing.B) {
	in := New(lossless(44))
	probes := mixedBatch(b, in)
	link := NewLink(in, 256, 0)
	defer link.Close()
	dst := make([][]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, link, probes, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probes)), "ns/probe")
}
