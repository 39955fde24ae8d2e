package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"zmapgo/internal/output"
	"zmapgo/internal/packet"
	"zmapgo/internal/probe"
	"zmapgo/internal/ratelimit"
	"zmapgo/internal/target"
	"zmapgo/internal/validate"
)

// nullTransport accepts every frame instantly, isolating the cost of
// the send path itself (build, rate accounting, transport dispatch)
// from any simulated network behavior.
type nullTransport struct{ sent atomic.Uint64 }

func (t *nullTransport) Send(frame []byte) error { t.sent.Add(1); return nil }

func (t *nullTransport) SendBatch(frames [][]byte) (int, error) {
	t.sent.Add(uint64(len(frames)))
	return len(frames), nil
}

func (t *nullTransport) Recv() <-chan []byte    { return nil }
func (t *nullTransport) RecvBatch([][]byte) int { return 0 }
func (t *nullTransport) Release([]byte)         {}

func (t *nullTransport) Stats() (sent, received, dropped uint64) {
	return t.sent.Load(), 0, 0
}

// nullScan configures a scan of 2^bits addresses on port 80 for a
// nullTransport: nothing answers, so a short fixed cooldown ends it.
func nullScan(t testing.TB, bits, threads int) Config {
	t.Helper()
	ports, err := target.ParsePorts("80")
	if err != nil {
		t.Fatal(err)
	}
	cons := target.NewConstraint(false)
	cons.Allow(0x0A000000, 32-bits)
	return Config{Constraint: cons, Ports: ports, Seed: 3, Threads: threads,
		Cooldown: 20 * time.Millisecond, CooldownMax: -1,
		Results: &output.CountingWriter{}}
}

func benchProbeCtx() *probe.Context {
	var key [validate.KeySize]byte
	copy(key[:], "sendpath-benchmark-validator-key")
	return &probe.Context{
		SrcIP:           0x0A000001,
		SrcMAC:          packet.MAC{2, 0, 0, 0, 0, 1},
		GwMAC:           packet.MAC{2, 0, 0, 0, 0, 2},
		Validator:       validate.New(key),
		SourcePortBase:  32768,
		SourcePortCount: 256,
		Options:         packet.LayoutMSS,
		RandomIPID:      true,
		TTL:             packet.DefaultProbeTTL,
		TimestampValue:  0xDEADBEEF,
	}
}

// BenchmarkSendPathPerProbe is the historical per-probe shape the
// engine used before batching: one rate token, one from-scratch probe
// build, one transport call per target.
func BenchmarkSendPathPerProbe(b *testing.B) {
	mod, err := probe.Lookup("tcp_synscan")
	if err != nil {
		b.Fatal(err)
	}
	ctx := benchProbeCtx()
	limiter := ratelimit.New(0, ratelimit.RealClock{})
	tr := &nullTransport{}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limiter.Wait()
		buf, err = mod.MakeProbe(buf[:0], ctx, 0x0A000000+uint32(i), 443)
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Send(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendPathBatch is the batched template path: frames are
// re-patched in a preallocated ring, tokens granted per batch, and the
// whole batch handed to the transport in one call.
func BenchmarkSendPathBatch(b *testing.B) {
	for _, size := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			mod, err := probe.Lookup("tcp_synscan")
			if err != nil {
				b.Fatal(err)
			}
			ctx := benchProbeCtx()
			r, err := mod.MakeTemplate(ctx)
			if err != nil {
				b.Fatal(err)
			}
			limiter := ratelimit.New(0, ratelimit.RealClock{})
			tr := &nullTransport{}
			backing := make([]byte, size*r.Len())
			slots := make([][]byte, size)
			for i := range slots {
				slots[i] = backing[i*r.Len() : (i+1)*r.Len()]
				r.Seed(slots[i])
			}
			frames := make([][]byte, 0, size)
			b.ReportAllocs()
			b.ResetTimer()
			ip := uint32(0x0A000000)
			for done := 0; done < b.N; {
				frames = frames[:0]
				for len(frames) < size && done+len(frames) < b.N {
					slot := slots[len(frames)]
					r.Render(slot, ip, 443)
					frames = append(frames, slot)
					ip++
				}
				idx := 0
				for idx < len(frames) {
					n := limiter.WaitN(len(frames) - idx)
					sent, err := tr.SendBatch(frames[idx : idx+n])
					if err != nil {
						b.Fatal(err)
					}
					idx += sent
				}
				done += len(frames)
			}
		})
	}
}

// BenchmarkSendPathScan times the send loop the engine runs, books and
// all, where BenchmarkSendPathBatch times a hand copy of fill and flush:
// one op is New plus Run of a 2^16-target scan on a null transport, and
// ns/probe is the send phase's wall time per probe. A write every thread
// makes per probe shows up here, at threads=2, and nowhere else in the
// file. The sparse row scans 2^19 targets on two threads: the 2^24+43
// group walks 32 elements per probe, as the paced_sim workload does, so
// it prices the walk past out-of-space elements. Allocations are
// TestScanAllocationBudget's job: a whole scan's count moves by a few
// with GC.
func BenchmarkSendPathScan(b *testing.B) {
	for _, sc := range []struct {
		name          string
		bits, threads int
	}{
		{"threads=1", 16, 1},
		{"threads=2", 16, 2},
		{"sparse", 19, 2},
	} {
		b.Run(sc.name, func(b *testing.B) {
			var sendSecs float64
			var probes uint64
			for i := 0; i < b.N; i++ {
				cfg := nullScan(b, sc.bits, sc.threads)
				cfg.Cooldown = time.Millisecond
				s, err := New(cfg, &nullTransport{})
				if err != nil {
					b.Fatal(err)
				}
				meta, err := s.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				for _, ph := range meta.Phases {
					if ph.Phase == "send" {
						sendSecs += ph.DurationSecs
					}
				}
				probes += meta.PacketsSent
			}
			b.ReportMetric(sendSecs*1e9/float64(probes), "ns/probe")
		})
	}
}

// TestBatchSendPathZeroAllocs pins the acceptance bar: one full
// fill-and-flush cycle of the batched path allocates nothing.
func TestBatchSendPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are not meaningful")
	}
	mod, err := probe.Lookup("tcp_synscan")
	if err != nil {
		t.Fatal(err)
	}
	ctx := benchProbeCtx()
	r, err := mod.MakeTemplate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const size = 64
	limiter := ratelimit.New(0, ratelimit.RealClock{})
	tr := &nullTransport{}
	backing := make([]byte, size*r.Len())
	slots := make([][]byte, size)
	for i := range slots {
		slots[i] = backing[i*r.Len() : (i+1)*r.Len()]
		r.Seed(slots[i])
	}
	frames := make([][]byte, 0, size)
	ip := uint32(0x0A000000)
	allocs := testing.AllocsPerRun(100, func() {
		frames = frames[:0]
		for len(frames) < size {
			slot := slots[len(frames)]
			r.Render(slot, ip, 443)
			frames = append(frames, slot)
			ip++
		}
		idx := 0
		for idx < len(frames) {
			n := limiter.WaitN(len(frames) - idx)
			sent, err := tr.SendBatch(frames[idx : idx+n])
			if err != nil {
				t.Fatal(err)
			}
			idx += sent
		}
	})
	if allocs != 0 {
		t.Fatalf("batched send path allocates %.1f objects per batch, want 0", allocs)
	}
}
