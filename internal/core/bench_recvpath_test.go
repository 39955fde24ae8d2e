package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"zmapgo/internal/output"
	"zmapgo/internal/target"
)

func newBenchConstraint() *target.Constraint {
	cons := target.NewConstraint(false)
	cons.Allow(0x0A000000, 12)
	return cons
}

func parseBenchPorts() (*target.PortSet, error) { return target.ParsePorts("80") }

// replayTransport replays a fixed set of valid response frames into the
// receive path on demand: feed(n) queues n deliveries (cycling through
// the frame set) and wakes the dispatcher with a single frame through
// the Recv channel; the dispatcher drains the rest via RecvBatch. The
// same backing slices are delivered repeatedly — the engine never
// retains or mutates a frame past handleFrame, which is exactly the
// pooled-buffer contract this benchmark exists to exercise.
type replayTransport struct {
	frames    [][]byte
	ch        chan []byte
	mu        sync.Mutex
	queued    int
	next      int
	delivered atomic.Uint64
}

func newReplayTransport(frames [][]byte) *replayTransport {
	return &replayTransport{frames: frames, ch: make(chan []byte, 1)}
}

func (r *replayTransport) SendBatch(frames [][]byte) (int, error) { return len(frames), nil }

// Release is a no-op: the frame set is fixed and replayed in place.
func (r *replayTransport) Release([]byte) {}

func (r *replayTransport) Recv() <-chan []byte { return r.ch }

func (r *replayTransport) Stats() (sent, received, dropped uint64) {
	return 0, r.delivered.Load(), 0
}

// take pops the next frame; caller holds mu.
func (r *replayTransport) take() []byte {
	f := r.frames[r.next]
	r.next++
	if r.next == len(r.frames) {
		r.next = 0
	}
	r.queued--
	r.delivered.Add(1)
	return f
}

// feed queues n more frame deliveries and, when the queue was empty,
// pushes one frame through the Recv channel so a dispatcher parked on
// it wakes and batch-drains the rest.
func (r *replayTransport) feed(n int) {
	r.mu.Lock()
	wasEmpty := r.queued == 0
	r.queued += n
	var wake []byte
	if wasEmpty && r.queued > 0 {
		wake = r.take()
	}
	r.mu.Unlock()
	if wake != nil {
		r.ch <- wake
	}
}

// RecvBatch implements Transport. When frames remain after the
// drain, one is pushed through the Recv channel to re-arm the wakeup:
// the dispatcher only consumed the previous wake frame, so without this
// the rest of the queue would strand. At most one wake is ever
// outstanding (feed only posts on an empty->non-empty transition, and
// the dispatcher calls RecvBatch right after consuming a wake), so the
// channel send cannot block.
func (r *replayTransport) RecvBatch(dst [][]byte) int {
	r.mu.Lock()
	n := 0
	for n < len(dst) && r.queued > 0 {
		dst[n] = r.take()
		n++
	}
	var wake []byte
	if r.queued > 0 {
		wake = r.take()
	}
	r.mu.Unlock()
	if wake != nil {
		r.ch <- wake
	}
	return n
}

// waitRecvCount spins (yielding) until the pipeline has counted total
// received frames — the benchmark's backpressure, so feeding never runs
// unboundedly ahead of processing.
func waitRecvCount(s *Scanner, total uint64) {
	for s.counts.recv.Load() < total {
		runtime.Gosched()
	}
}

// BenchmarkRecvPath measures the sharded receive path end to end:
// dispatcher fanout, per-worker parse+verify (single pass), stateless
// validation, per-shard dedup, and result buffering with the merge
// writer draining concurrently. ns/op is per frame; ops/sec is therefore
// frames per second. Run with -benchmem: the steady state must report
// 0 allocs/op.
//
// Two shapes. workers=N replays 1024 responders that stay in the dedup
// window, so after the warm-up every frame is a repeat and no row is
// written: the floor of the path. fresh cycles through twice as many
// responders as the window holds, so every frame is a first sighting —
// a dedup insert and eviction, and a JSON Lines row through the default
// filter into a discard stream — which is what a scan of distinct hosts
// pays per answered probe.
//
// Note on worker scaling: workers=8 runs only where there are eight
// CPUs to run them. On fewer the workers serialize, and the row would
// measure sharding overhead rather than the parallel speedup it reads as.
func BenchmarkRecvPath(b *testing.B) {
	type shape struct {
		name    string
		workers int
		frames  int
		results func() output.Writer
	}
	counting := func() output.Writer { return &output.CountingWriter{} }
	shapes := []shape{{"workers=1", 1, 1024, counting}}
	if runtime.GOMAXPROCS(0) >= 8 {
		shapes = append(shapes, shape{"workers=8", 8, 1024, counting})
	}
	shapes = append(shapes, shape{"fresh", 1, 2 * recvBenchWindow, discardRows})
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			tr := newReplayTransport(nil)
			s := newRecvBenchScanner(b, sh.workers, tr, sh.results())
			tr.frames = collectResponseFrames(b, s, sh.frames)

			stop := make(chan struct{})
			var cooldownAt atomic.Int64
			recvDone := make(chan struct{})
			go func() {
				defer close(recvDone)
				s.recvLoop(context.Background(), stop, &cooldownAt)
			}()

			// Warm up: every distinct frame once (first sightings fill
			// the window), then once more (repeats, or evictions for the
			// fresh shape; buffers grown).
			warm := 2 * len(tr.frames)
			tr.feed(warm)
			waitRecvCount(s, uint64(warm))

			b.ReportAllocs()
			b.ResetTimer()
			const chunk = 4096
			fed := 0
			for fed < b.N {
				n := chunk
				if rem := b.N - fed; rem < n {
					n = rem
				}
				tr.feed(n)
				fed += n
				waitRecvCount(s, uint64(warm+fed))
			}
			b.StopTimer()
			close(stop)
			<-recvDone
			if rows := output.Written(s.cfg.Results); sh.name == "fresh" && rows != uint64(warm+fed) {
				b.Fatalf("%d rows written for %d first sightings", rows, warm+fed)
			}
		})
	}
}
