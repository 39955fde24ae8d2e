package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sync"
)

// span is one timed interval at a boundary the benchmark owns. Spans of
// one sampled flow share its Key and hang off the flow's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    uint64 `json:"key,omitempty"`
}

// recorder is the traced pass's memory: spans for the run and for
// 1-in-256 flows, and per-frame samples for the receive-side quantiles.
// Everything is held in memory and written out after Run returns. One
// mutex guards it all; only a traced pass pays for that.
type recorder struct {
	mu    sync.Mutex
	spans []span
	flows map[uint64]int // sampled flow key -> index of its root span

	sendNs     int64     // total time inside SendBatch, the transport's own
	heldNs     int64     // the same plus the recorder's work, so neither counts as the scanner's
	batchSizes []float64 // frames per SendBatch call

	// Frames are released in the order they were handed off (one receive
	// worker), so hand-off times queue here and Release pops them.
	handoffs  []handoffMark
	handoffAt map[uint64]int64 // flow key -> first hand-off, row not yet seen
	rowAt     map[uint64]int64 // flow key -> row seen before its frame's release
	residence []float64        // hand-off -> Release in ns, per frame
	lag       []float64        // hand-off -> row at the Results writer in ns, per row

	// probed proves exactly-once coverage on send_null: one bit per
	// address of the contiguous range starting at probedBase.
	probed     []uint64
	probedBase uint32
	reprobed   uint64
}

type handoffMark struct {
	at int64
	n  int
}

func newRecorder() *recorder {
	return &recorder{
		flows:     make(map[uint64]int),
		handoffAt: make(map[uint64]int64),
		rowAt:     make(map[uint64]int64),
	}
}

// add appends a span and returns its ID (index+1, so 0 means "no parent").
func (r *recorder) add(parent int, name string, start, end int64, key uint64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Key: key})
	return id
}

// child hangs a span off a sampled flow's root and stretches the root.
func (r *recorder) child(key uint64, name string, start, end int64) {
	root, ok := r.flows[key]
	if !ok {
		return
	}
	r.add(root+1, name, start, end, key)
	if end > r.spans[root].End {
		r.spans[root].End = end
	}
}

// runSpanID is the root every other span descends from; the pass adds it
// first.
const runSpanID = 1

func (r *recorder) sendBatch(frames [][]byte, t0, t1 int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer func() { r.heldNs += now() - t0 }()
	r.sendNs += t1 - t0
	r.batchSizes = append(r.batchSizes, float64(len(frames)))
	for _, f := range frames {
		ip, port := probeTarget(f)
		if r.probed != nil {
			i := ip - r.probedBase
			if r.probed[i/64]&(1<<(i%64)) != 0 {
				r.reprobed++
			}
			r.probed[i/64] |= 1 << (i % 64)
		}
		if key := flowKey(ip, port); sampled(key) {
			if _, seen := r.flows[key]; !seen {
				r.flows[key] = r.add(runSpanID, "flow", t0, t1, key) - 1
			}
			r.child(key, "transport.send_batch", t0, t1)
		}
	}
}

// handoff notes that the scanner just took drained+1 frames: the one it
// received from the Recv channel and the ones RecvBatch added to it.
func (r *recorder) handoff(drained int) {
	t := now()
	r.mu.Lock()
	r.handoffs = append(r.handoffs, handoffMark{at: t, n: drained + 1})
	r.mu.Unlock()
}

func (r *recorder) release(frame []byte) {
	t := now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.handoffs) == 0 {
		return
	}
	at := r.handoffs[0].at
	if r.handoffs[0].n--; r.handoffs[0].n == 0 {
		r.handoffs = r.handoffs[1:]
	}
	r.residence = append(r.residence, float64(t-at))
	ip, port, ok := replySource(frame)
	if !ok {
		return
	}
	key := flowKey(ip, port)
	if sampled(key) {
		r.child(key, "core.recv_residence", at, t)
	}
	// The row may reach the writer before or after the frame is released.
	if row, ok := r.rowAt[key]; ok {
		delete(r.rowAt, key)
		r.sawLag(key, at, row)
	} else if _, ok := r.handoffAt[key]; !ok {
		r.handoffAt[key] = at
	}
}

func (r *recorder) sawLag(key uint64, handoff, row int64) {
	r.lag = append(r.lag, float64(row-handoff))
	if sampled(key) {
		r.child(key, "output.lag", handoff, row)
	}
}

// rows consumes every complete result row in buf and returns the
// unterminated remainder. Rows are CSV or JSONL; header and unparseable
// lines are skipped.
func (r *recorder) rows(buf []byte) []byte {
	t := now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			return append(buf[:0:0], buf...)
		}
		line := buf[:nl]
		buf = buf[nl+1:]
		key, ok := rowKey(line)
		if !ok {
			continue
		}
		if at, ok := r.handoffAt[key]; ok {
			delete(r.handoffAt, key)
			r.sawLag(key, at, t)
		} else {
			r.rowAt[key] = t
		}
	}
}

// rowKey extracts (saddr, sport) from a CSV row ("1.2.3.4,80,...") or a
// JSONL row ({"saddr":"1.2.3.4","sport":80,...}).
func rowKey(line []byte) (uint64, bool) {
	if i := bytes.Index(line, []byte(`"saddr":"`)); i >= 0 {
		line = line[i+len(`"saddr":"`):]
	}
	ip, n := uint32(0), 0
	for octet := 0; octet < 4; octet++ {
		v, digits := 0, 0
		for n < len(line) && line[n] >= '0' && line[n] <= '9' {
			v, digits, n = v*10+int(line[n]-'0'), digits+1, n+1
		}
		if digits == 0 || v > 255 {
			return 0, false
		}
		ip = ip<<8 | uint32(v)
		if octet < 3 {
			if n >= len(line) || line[n] != '.' {
				return 0, false
			}
			n++
		}
	}
	// Skip the separator between the fields: "," or `","sport":`.
	for n < len(line) && (line[n] < '0' || line[n] > '9') {
		n++
	}
	port, digits := 0, 0
	for n < len(line) && line[n] >= '0' && line[n] <= '9' {
		port, digits, n = port*10+int(line[n]-'0'), digits+1, n+1
	}
	if digits == 0 || port > 65535 {
		return 0, false
	}
	return flowKey(ip, uint16(port)), true
}

// unprobed counts addresses of the send_null range no frame was aimed at.
func (r *recorder) unprobed(targets uint64) uint64 {
	var set uint64
	for _, w := range r.probed {
		for ; w != 0; w &= w - 1 {
			set++
		}
	}
	return targets - set
}

// writeSpans dumps the spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
