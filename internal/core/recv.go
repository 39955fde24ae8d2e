// Sharded receive pipeline: the dispatcher drains the transport, fans
// frames out to N workers by flow hash, and a single merge writer drains
// the per-worker result buffers into the output stream.
//
// Ownership is strictly partitioned so the hot path takes no locks:
// every frame of one response flow lands on the same worker
// (dedup.ShardOf over the packed (IP, port) key), so each worker owns a
// private dedup window, a private latency-histogram shard, a private
// flight-recorder ring shard, and a private parse scratch. The only
// cross-goroutine structures are the per-worker result buffer (a short
// mutex-guarded slice swap) and the atomic scan counters.

package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/dedup"
	"zmapgo/internal/metrics"
	"zmapgo/internal/output"
	"zmapgo/internal/packet"
	"zmapgo/internal/probe"
	"zmapgo/internal/trace"
)

const (
	// recvBatchFrames bounds how many frames the dispatcher drains from
	// the transport per wakeup and how many one worker batch carries.
	recvBatchFrames = 256

	// recvFreeBatches is each worker's pooled-batch depth. An exhausted
	// pool blocks the dispatcher on that worker's free list —
	// backpressure toward the transport ring — instead of allocating.
	recvFreeBatches = 4
)

// ceilPow2 rounds n up to a power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// pendingResult is the compact, allocation-free form of one classified
// response a worker buffers for the merge writer. Class strings come
// from probe modules as package-level constants, so copying the string
// header allocates nothing.
type pendingResult struct {
	ip       uint32
	port     uint16
	ttl      uint8
	success  bool
	repeat   bool
	cooldown bool
	class    string
	elapsed  time.Duration
}

// recvBatch is one pooled batch of raw frames bound for one worker. t0
// is the transport-drain timestamp the whole batch shares: one clock
// read amortized across every frame, mirroring the send path's batched
// latency accounting.
type recvBatch struct {
	t0     time.Time
	frames [][]byte
}

// recvMsg is one worker-inbox message: a frame batch, a checkpoint
// handshake (reply with the dedup shard's keys on the keys channel), or
// stop. The inbox is never closed — stop is an in-band message so it
// cannot overtake batches already queued.
type recvMsg struct {
	batch *recvBatch
	keys  chan<- []uint64
	stop  bool
}

type recvWorker struct {
	idx     int
	inbox   chan recvMsg
	free    chan *recvBatch
	window  *dedup.Window // owned dedup shard; nil = dedup disabled
	recvLat *metrics.HistShard
	tshard  *trace.Shard
	scratch packet.FrameScratch

	// Result buffer: the worker appends under mu, the merge writer swaps
	// the slice out under mu and writes outside it. drained is the
	// writer-owned spare that becomes the next pending, so the two
	// slices recycle with zero steady-state allocation.
	mu      sync.Mutex
	pending []pendingResult
	drained []pendingResult
}

type pipeState int

const (
	pipeIdle pipeState = iota
	pipeRunning
	pipeStopped
)

// recvPipeline owns the receive-side workers and the merge writer. It
// is constructed in New (so checkpoint restore can partition dedup keys
// into the shards) and started by recvLoop (so benchmarks can drive the
// loop without a full Run).
type recvPipeline struct {
	s       *Scanner
	workers []*recvWorker
	mask    uint32        // len(workers)-1; len is a power of two
	notify  chan struct{} // worker → merge writer doorbell (cap 1)

	mu        sync.Mutex // guards state transitions and dedupSnapshot
	state     pipeState
	wg        sync.WaitGroup
	mergeStop chan struct{}
	mergeDone chan struct{}
}

// newRecvPipeline builds the worker set. windows carries the per-worker
// dedup shards (nil when dedup is disabled); its length must equal
// cfg.RecvWorkers.
func newRecvPipeline(s *Scanner, windows []*dedup.Window) *recvPipeline {
	n := s.cfg.RecvWorkers
	p := &recvPipeline{
		s:      s,
		mask:   uint32(n - 1),
		notify: make(chan struct{}, 1),
	}
	p.workers = make([]*recvWorker, n)
	for i := range p.workers {
		w := &recvWorker{
			idx:     i,
			inbox:   make(chan recvMsg, recvFreeBatches),
			free:    make(chan *recvBatch, recvFreeBatches),
			recvLat: s.recvLat.Shard(i),
			tshard:  s.trace.Shard(s.cfg.Threads + i),
		}
		if windows != nil {
			w.window = windows[i]
		}
		for j := 0; j < recvFreeBatches; j++ {
			w.free <- &recvBatch{frames: make([][]byte, 0, recvBatchFrames)}
		}
		p.workers[i] = w
	}
	return p
}

// restoreDedupShards replays checkpointed dedup keys into the per-worker
// windows using the same flow hash the dispatcher fans frames with, so a
// resume with a different RecvWorkers count still lands every key on the
// worker that will see that flow's frames. Keys replay oldest-first, so
// within each shard the eviction order matches a live run's.
func restoreDedupShards(windows []*dedup.Window, keys []uint64) {
	mask := uint32(len(windows) - 1)
	for _, k := range keys {
		ip, port := uint32(k>>16), uint16(k)
		windows[dedup.ShardOf(ip, port, mask)].Seen(ip, port)
	}
}

// start launches the workers and the merge writer. Called by recvLoop;
// idempotent under mu.
func (p *recvPipeline) start(cooldownAt *atomic.Int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != pipeIdle {
		return
	}
	p.state = pipeRunning
	p.mergeStop = make(chan struct{})
	p.mergeDone = make(chan struct{})
	for _, w := range p.workers {
		p.wg.Add(1)
		go func(w *recvWorker) {
			defer p.wg.Done()
			w.run(p, cooldownAt)
		}(w)
	}
	go p.mergeLoop()
}

// shutdown stops the workers (in-band, behind any queued batches), then
// the merge writer after a final drain. Holding mu across the joins
// means a concurrent dedupSnapshot either completes its handshake before
// shutdown begins or observes pipeStopped and reads the shards directly.
func (p *recvPipeline) shutdown() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != pipeRunning {
		return
	}
	for _, w := range p.workers {
		w.inbox <- recvMsg{stop: true}
	}
	p.wg.Wait()
	close(p.mergeStop)
	<-p.mergeDone
	p.state = pipeStopped
}

// kick rings the merge writer's doorbell without blocking.
func (p *recvPipeline) kick() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// fanout partitions one transport drain across the worker shards by
// flow hash and flushes every touched batch before returning, so frames
// never sit in the dispatcher while the wire is quiet. With one worker
// the flow hash is skipped entirely — the classic single-receiver path
// pays only the batch bookkeeping.
func (s *Scanner) fanout(frames [][]byte, fills []*recvBatch, t0 time.Time) {
	p := s.recvPipe
	for _, frame := range frames {
		w := p.workers[0]
		if p.mask != 0 {
			ip, port := packet.FlowKey(frame)
			w = p.workers[dedup.ShardOf(ip, port, p.mask)]
		}
		b := fills[w.idx]
		if b == nil {
			b = <-w.free
			b.t0 = t0
			fills[w.idx] = b
		}
		b.frames = append(b.frames, frame)
		if len(b.frames) == cap(b.frames) {
			w.inbox <- recvMsg{batch: b}
			fills[w.idx] = nil
		}
	}
	for i, b := range fills {
		if b != nil {
			p.workers[i].inbox <- recvMsg{batch: b}
			fills[i] = nil
		}
	}
}

// run is one worker's loop: process batches, answer checkpoint
// handshakes, exit on stop. The worker releases every frame back to the
// transport pool exactly once, after handleFrame is done with it.
func (w *recvWorker) run(p *recvPipeline, cooldownAt *atomic.Int64) {
	s := p.s
	for {
		msg := <-w.inbox
		switch {
		case msg.stop:
			return
		case msg.keys != nil:
			var keys []uint64
			if w.window != nil {
				keys = w.window.Keys()
			}
			msg.keys <- keys
		default:
			b := msg.batch
			classified := 0
			for _, frame := range b.frames {
				if s.handleFrame(w, frame, b.t0, cooldownAt) {
					classified++
				}
				s.transport.Release(frame)
			}
			if classified > 0 {
				// One clock read per batch, amortized across the frames
				// that reached classification — the receive-side mirror
				// of flushBatch's send-latency accounting.
				w.recvLat.RecordN(time.Since(b.t0)/time.Duration(classified), classified)
			}
			b.frames = b.frames[:0]
			w.free <- b
		}
	}
}

// handleFrame processes one frame on worker w: parse and verify in a
// single pass, classify, dedup against the worker's own shard, and
// buffer the result for the merge writer. It reports whether the frame
// reached classification (parsed and verified), which is what the
// receive-latency histogram counts.
func (s *Scanner) handleFrame(w *recvWorker, frame []byte, t0 time.Time, cooldownAt *atomic.Int64) bool {
	cfg := &s.cfg
	c := &s.counts
	c.recv.Add(1)
	f, err := w.scratch.ParseVerified(frame)
	if err != nil {
		// Parser taxonomy: truncated frames, checksum failures, and
		// unsupported protocols are counted separately so a hostile or
		// lossy path shows up with the right shape in the status stream.
		switch {
		case errors.Is(err, packet.ErrChecksum):
			// Parsed but corrupt: a flipped bit anywhere in the IP
			// header or transport segment lands here, never in results.
			c.recvChecksum.Add(1)
		case errors.Is(err, packet.ErrTruncated):
			c.recvTruncated.Add(1)
			cfg.Logger.Debug("unparseable frame", "err", err)
		default:
			c.recvUnsupported.Add(1)
			cfg.Logger.Debug("unparseable frame", "err", err)
		}
		return false
	}
	if s.health != nil && f.ICMP != nil && f.ICMP.Type == packet.ICMPDestUnreach &&
		f.IP.Dst == s.probeCtx.SrcIP {
		// Congestion telemetry: an unreachable quoting one of our probes
		// (quoted source must be the scanner — the quote bytes are
		// attacker-controlled, and spoofed unreachables must not be able
		// to talk the rate down). This runs for every probe module: a
		// TCP scan's unreachables never reach Classify, but they are
		// exactly the signal ICMP rate-limiting at a congested edge emits.
		if q, ok := probe.ParseUnreachQuote(f.Payload); ok && q.Src == s.probeCtx.SrcIP {
			s.health.NoteUnreach(q.Dst)
		}
	}
	res, ok := s.module.Classify(&s.probeCtx, f)
	if !ok {
		// Well-formed but unvalidatable: spoofed or unsolicited
		// traffic that carries no proof it answers our probe.
		c.recvInvalid.Add(1)
		return true
	}
	c.valid.Add(1)
	// Flight recorder: the same stateless hash the send path used, so a
	// sampled target's response events land on its send-side span.
	traced := s.trace.Sampled(res.IP, res.Port)
	if traced {
		w.tshard.RecordAt(int64(t0.Sub(s.trace.Epoch())), trace.KRespReceived, res.IP, res.Port, 0)
		w.tshard.Record(trace.KRespValidated, res.IP, res.Port, 0)
	}
	// The flow hash routed every frame of this (ip, port) to this
	// worker, so the shard needs no lock.
	repeat := w.window != nil && w.window.Seen(res.IP, res.Port)
	if repeat {
		c.duplicates.Add(1)
	}
	if traced && w.window != nil {
		var dup uint64
		if repeat {
			dup = 1
		}
		w.tshard.Record(trace.KRespDeduped, res.IP, res.Port, dup)
	}
	if res.Success {
		c.success.Add(1)
		if !repeat {
			c.uniqueSucc.Add(1)
			if s.health != nil {
				s.health.NoteRecv(res.IP)
			}
		}
	}
	w.mu.Lock()
	w.pending = append(w.pending, pendingResult{
		ip:       res.IP,
		port:     res.Port,
		ttl:      res.TTL,
		success:  res.Success,
		repeat:   repeat,
		cooldown: cooldownAt.Load() != 0,
		class:    res.Class,
		elapsed:  t0.Sub(s.start),
	})
	w.mu.Unlock()
	s.recvPipe.kick()
	if traced {
		// Recorded at enqueue time: the ring shard is single-writer
		// (this worker), so the merge writer cannot record it there.
		w.tshard.Record(trace.KRespWritten, res.IP, res.Port, 0)
	}
	return true
}

// mergeLoop is the single result writer: it drains every worker's
// buffer whenever a worker rings the doorbell, and once more on stop.
func (p *recvPipeline) mergeLoop() {
	defer close(p.mergeDone)
	for {
		select {
		case <-p.notify:
			p.s.drainResults()
		case <-p.mergeStop:
			p.s.drainResults()
			return
		}
	}
}

func (s *Scanner) drainResults() {
	s.resultsMu.Lock()
	s.drainResultsLocked()
	s.resultsMu.Unlock()
}

// drainResultsLocked writes every buffered result to the Results stream
// in worker order, then flushes, so the rows of one drain reach the
// stream in one Write. The caller holds resultsMu — the merge writer for
// ordinary drains, the checkpoint writer before it reads the written
// count, which is how the snapshot's ResultsWritten stays a floor on
// what the stream durably holds.
func (s *Scanner) drainResultsLocked() {
	p := s.recvPipe
	if p == nil {
		return
	}
	for _, w := range p.workers {
		w.mu.Lock()
		batch := w.pending
		w.pending = w.drained[:0]
		w.mu.Unlock()
		for i := range batch {
			r := &batch[i]
			rec := output.Record{
				IP:             r.ip,
				Sport:          r.port,
				Classification: r.class,
				Success:        r.success,
				Repeat:         r.repeat,
				InCooldown:     r.cooldown,
				TTL:            r.ttl,
				Timestamp:      r.elapsed.Seconds(),
			}
			if err := s.cfg.Results.Write(rec); err != nil {
				s.noteRowsLost(err, 1)
			}
		}
		w.drained = batch[:0]
	}
	if err := output.Flush(s.cfg.Results); err != nil {
		s.noteRowsLost(err, 0)
	}
	s.counts.written.Store(output.Written(s.cfg.Results))
}

// noteRowsLost accounts for a failed result Write or Flush. Results are
// a best-effort stream (§5): the scan carries on, every lost row is
// counted, and only the first failure is logged — a dead sink
// (`zmapgo | head`) fails every drain for the rest of the scan. rows is
// what the failure cost when the writer does not say; the built-in
// writers say, through output.LostError. The caller holds resultsMu.
func (s *Scanner) noteRowsLost(err error, rows uint64) {
	var lost *output.LostError
	if errors.As(err, &lost) {
		rows = lost.Rows
	}
	if !s.resultsFailed {
		s.resultsFailed = true
		s.cfg.Logger.Error("result write failed; further failures are counted, not logged", "err", err)
	}
	s.counts.rowsLost.Add(rows)
}

// dedupSnapshot merges the per-worker dedup shards into one checkpoint
// document: keys concatenated in worker order (oldest-first within each
// shard), size the sum of shard capacities. Restore re-partitions by
// ShardOf, so the merged form round-trips across different RecvWorkers
// counts. Returns nil when dedup is disabled.
func (p *recvPipeline) dedupSnapshot() *checkpoint.DedupState {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.workers[0].window == nil {
		return nil
	}
	size := 0
	var keys []uint64
	if p.state == pipeRunning {
		// Handshake: each worker serializes Keys() against its own Seen
		// calls by answering from its loop. mu is held throughout, so
		// shutdown cannot begin mid-handshake and strand a request.
		replies := make([]chan []uint64, len(p.workers))
		for i, w := range p.workers {
			replies[i] = make(chan []uint64, 1)
			w.inbox <- recvMsg{keys: replies[i]}
		}
		for i, w := range p.workers {
			keys = append(keys, <-replies[i]...)
			size += w.window.Size()
		}
	} else {
		// Idle or stopped: no worker goroutine is touching the shards
		// (start and shutdown both transition under mu), read directly.
		for _, w := range p.workers {
			keys = append(keys, w.window.Keys()...)
			size += w.window.Size()
		}
	}
	return &checkpoint.DedupState{Size: size, Keys: checkpoint.EncodeKeys(keys)}
}
