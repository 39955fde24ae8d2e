package monitor

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// book stands in for the engine's counts: the writer sees them only
// through Fill.
type book struct{ sent, recv, unique atomic.Uint64 }

func (b *book) fill(st *Status, _ time.Duration) {
	st.Sent, st.Recv, st.Unique = b.sent.Load(), b.recv.Load(), b.unique.Load()
}

func TestStatusWriterEmitsLines(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := &lockedWriter{mu: &mu, w: &buf}
	var b book
	s := NewStatusWriter(w, StatusOptions{Interval: 10 * time.Millisecond, Fill: b.fill})
	b.sent.Add(100)
	time.Sleep(35 * time.Millisecond)
	s.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected >= 2 status lines, got %q", out)
	}
	fields := strings.Split(lines[len(lines)-1], ",")
	if len(fields) != 22 {
		t.Fatalf("status line has %d fields: %q", len(fields), lines[len(lines)-1])
	}
	if fields[1] != "100" {
		t.Errorf("sent field = %q, want 100", fields[1])
	}
}

func TestStatusWriterNilWriter(t *testing.T) {
	s := NewStatusWriter(nil, StatusOptions{Interval: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	s.Stop() // must not panic
}

func TestStatusWriterStopIdempotent(t *testing.T) {
	s := NewStatusWriter(nil, StatusOptions{Interval: time.Millisecond})
	s.Stop()
	s.Stop() // second call must not panic on a closed channel

	// Concurrent stops must all return.
	s2 := NewStatusWriter(nil, StatusOptions{Interval: time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s2.Stop()
		}()
	}
	wg.Wait()
}

func TestStatusCSVHeaderPinned(t *testing.T) {
	// The column order is a compatibility contract for parsers of
	// --status-updates-file. New counters must be APPENDED; any reorder
	// or rename must be a deliberate, test-breaking decision.
	const want = "time_unix,sent,sent_pps,recv,recv_pps," +
		"success,unique,duplicates,drops," +
		"send_errors,retries,send_drops,sender_restarts,degraded_secs," +
		"recv_truncated,recv_unsupported,recv_checksum_fail,recv_invalid," +
		"hit_rate_1m,controller_rate_pps,quarantined_prefixes," +
		"parole_probes"
	if got := CSVHeader(); got != want {
		t.Errorf("CSV header changed:\n got %q\nwant %q", got, want)
	}
}

func TestStatusWriterHeaderLine(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := &lockedWriter{mu: &mu, w: &buf}
	s := NewStatusWriter(w, StatusOptions{
		Interval: 5 * time.Millisecond,
		Header:   true,
	})
	time.Sleep(15 * time.Millisecond)
	s.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != CSVHeader() {
		t.Fatalf("first line %q, want header", lines[0])
	}
	if strings.Count(out, CSVHeader()) != 1 {
		t.Error("header emitted more than once")
	}
	if len(lines) < 2 {
		t.Fatal("no data rows after header")
	}
	if cols := strings.Split(lines[1], ","); len(cols) != len(strings.Split(CSVHeader(), ",")) {
		t.Errorf("data row has %d fields, header has %d", len(cols), len(strings.Split(CSVHeader(), ",")))
	}
}

func TestStatusWriterJSONFormat(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := &lockedWriter{mu: &mu, w: &buf}
	var b book
	b.sent.Store(50)
	b.recv.Store(50)
	b.unique.Store(25)
	s := NewStatusWriter(w, StatusOptions{
		Interval: 5 * time.Millisecond,
		Format:   "json",
		Fill: func(st *Status, dt time.Duration) {
			b.fill(st, dt)
			st.ThreadPPS = []float64{12.5, 14}
			st.SendLatencyP50 = 0.001
			st.SendLatencyP90 = 0.002
			st.SendLatencyP99 = 0.004
		},
	})
	time.Sleep(15 * time.Millisecond)
	s.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 1 {
		t.Fatalf("no JSON status lines: %q", out)
	}
	var st Status
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &st); err != nil {
		t.Fatalf("unmarshal %q: %v", lines[len(lines)-1], err)
	}
	if st.Sent != 50 || st.Recv != 50 {
		t.Errorf("sent/recv = %d/%d", st.Sent, st.Recv)
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate)
	}
	if len(st.ThreadPPS) != 2 || st.SendLatencyP99 != 0.004 {
		t.Errorf("extra fields lost: %+v", st)
	}
	// Quantile keys must appear literally (the acceptance contract).
	for _, key := range []string{"send_latency_p50_secs", "send_latency_p90_secs", "send_latency_p99_secs", "hit_rate", "thread_pps"} {
		if !strings.Contains(lines[len(lines)-1], key) {
			t.Errorf("JSON line missing %q: %s", key, lines[len(lines)-1])
		}
	}
}

func TestStatusWriterCSVOutputUnchanged(t *testing.T) {
	// Without Header the stream keeps the exact pre-header format:
	// comma-separated fields matching csvColumns, no header line.
	var mu sync.Mutex
	var buf bytes.Buffer
	w := &lockedWriter{mu: &mu, w: &buf}
	s := NewStatusWriter(w, StatusOptions{Interval: 5 * time.Millisecond})
	time.Sleep(12 * time.Millisecond)
	s.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "time_unix") {
			t.Fatal("header emitted without Header set")
		}
		if got := len(strings.Split(line, ",")); got != 22 {
			t.Fatalf("line has %d fields: %q", got, line)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestWindowedHitRate(t *testing.T) {
	base := time.Unix(1000, 0)
	snap := func(at time.Duration, sent, unique uint64) tick {
		return tick{at: base.Add(at), sent: sent, unique: unique}
	}
	s := &StatusWriter{window: []tick{snap(0, 0, 0)}}

	// 10s in: cumulative and windowed agree (window covers the start).
	if got := s.windowedHitRate(snap(10*time.Second, 1000, 100)); got != 0.1 {
		t.Fatalf("windowed rate = %v, want 0.1", got)
	}
	// 30s in, still inside the window: rate over the whole history.
	if got := s.windowedHitRate(snap(30*time.Second, 2000, 200)); got != 0.1 {
		t.Fatalf("windowed rate = %v, want 0.1", got)
	}
	// 80s in: the t=0 and t=10s anchors have aged out; the window now
	// starts at t=30s. The scan went dark after 30s (no new uniques), so
	// the windowed rate collapses to 0 while cumulative would read 0.04.
	if got := s.windowedHitRate(snap(80*time.Second, 5000, 200)); got != 0 {
		t.Fatalf("windowed rate after collapse = %v, want 0", got)
	}
	// Nothing sent in the window (cooldown): defined as zero even as
	// responses trickle in.
	if got := s.windowedHitRate(snap(150*time.Second, 5000, 250)); got != 0 {
		t.Fatalf("windowed rate with idle senders = %v, want 0", got)
	}
}

func TestWindowedHitRateRingBounded(t *testing.T) {
	s := &StatusWriter{window: []tick{{at: time.Unix(0, 0)}}}
	base := time.Unix(1000, 0)
	for i := 0; i < 5000; i++ {
		s.windowedHitRate(tick{at: base.Add(time.Duration(i) * time.Millisecond)})
	}
	if len(s.window) > maxWindowEntries {
		t.Fatalf("window ring grew to %d entries", len(s.window))
	}
}
