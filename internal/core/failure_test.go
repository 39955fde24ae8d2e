package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"zmapgo/internal/netsim"
	"zmapgo/internal/output"
)

// failingWriter errors on every write after the first n.
type failingWriter struct {
	mu       sync.Mutex
	okLeft   int
	writes   int
	failures int
}

func (f *failingWriter) Write(output.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.okLeft > 0 {
		f.okLeft--
		return nil
	}
	f.failures++
	return errors.New("disk full")
}

func (f *failingWriter) Close() error { return nil }

func (f *failingWriter) RecordsWritten() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return uint64(f.writes - f.failures)
}

func TestScanSurvivesResultWriteFailures(t *testing.T) {
	// A failing output sink must not kill the scan: the engine logs and
	// keeps receiving (results are best-effort streams, §5).
	in, cfg, _ := testbed(t, 200, "80")
	fw := &failingWriter{okLeft: 3}
	cfg.Results = fw
	var logBuf safeBuffer
	logBuf.buf = &bytes.Buffer{}
	cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("scan failed outright: %v", err)
	}
	if meta.PacketsSent != 16384 {
		t.Errorf("scan stopped early: sent %d", meta.PacketsSent)
	}
	fw.mu.Lock()
	failures := fw.failures
	fw.mu.Unlock()
	if failures == 0 {
		t.Fatal("writer never failed; test is vacuous")
	}
	// No row vanishes without a counter: every row offered was either
	// accepted by the writer or counted as lost.
	fw.mu.Lock()
	offered, refused := uint64(fw.writes), uint64(fw.failures)
	fw.mu.Unlock()
	assertBooksBalance(t, meta, s.Registry(), offered)
	if meta.RowsLost != refused || meta.ResultsWritten != offered-refused {
		t.Errorf("metadata says %d rows written, %d lost; the writer took %d and refused %d",
			meta.ResultsWritten, meta.RowsLost, offered-refused, refused)
	}
	// A dead sink fails every row for the rest of the scan: one log line
	// for the first failure and one total, not one per row.
	logs := logBuf.String()
	if n := strings.Count(logs, "result write failed"); n != 1 {
		t.Errorf("write failure logged %d times, want once", n)
	}
	if !strings.Contains(logs, "result rows lost") || !strings.Contains(logs, fmt.Sprintf("rows=%d", refused)) {
		t.Errorf("no end-of-scan total of %d lost rows in the log:\n%s", refused, logs)
	}
}

// closedPipe accepts n stream writes, then refuses the rest, as stdout
// does once `zmapgo | head` has read enough.
type closedPipe struct {
	okLeft int
	bytes.Buffer
}

func (p *closedPipe) Write(b []byte) (int, error) {
	if p.okLeft == 0 {
		return 0, errors.New("write |1: broken pipe")
	}
	p.okLeft--
	return p.Buffer.Write(b)
}

func TestRowsLostToADeadStreamAreCounted(t *testing.T) {
	// The merge writer's drain is driven by hand over filled worker
	// buffers: each drain is one stream Write, so which Write the pipe
	// refuses does not depend on how a live scan's drains coalesce.
	in, cfg, _ := testbed(t, 200, "80")
	pipe := &closedPipe{okLeft: 2}
	cfg.Results = &output.Filtered{
		W:      output.NewTextWriter(pipe, false),
		Filter: output.MustCompileFilter(output.DefaultFilterExpr),
	}
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	w := s.recvPipe.workers[0]
	var uniqueSucc uint64
	for drain := 0; drain < 5; drain++ {
		w.mu.Lock()
		for i := 0; i < 8; i++ {
			// Every fourth row is a repeat, which the default filter
			// keeps from the stream: it is neither written nor lost.
			r := pendingResult{ip: 0x0A000000 + uint32(drain*8+i), port: 80, success: true, repeat: i%4 == 3, class: "synack"}
			if !r.repeat {
				uniqueSucc++
			}
			w.pending = append(w.pending, r)
		}
		w.mu.Unlock()
		s.drainResults()
	}
	written, lost := output.Written(cfg.Results), s.counts.rowsLost.Load()
	if lost == 0 {
		t.Fatal("stream never refused a write; test is vacuous")
	}
	// The default filter passes exactly the unique successes, so those
	// are the rows offered to the stream.
	if written+lost != uniqueSucc {
		t.Errorf("%d rows written + %d lost != %d rows offered", written, lost, uniqueSucc)
	}
	if lines := uint64(strings.Count(pipe.String(), "\n")); lines != written {
		t.Errorf("RecordsWritten = %d but the stream holds %d rows", written, lines)
	}
}

func TestScanCountsReceiveDrops(t *testing.T) {
	// A 1-slot receive ring under a burst must record drops in metadata,
	// like ZMap's recv-drop counter. A moderate rate keeps the batched
	// sender from starving the receiver outright: limiter sleeps are
	// guaranteed drain windows, while each batch grant still bursts far
	// past one ring slot.
	in, cfg, _ := testbed(t, 201, "80")
	cfg.Rate = 100000
	link := netsim.NewLink(in, 1, 0) // pathological ring
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.RecvDrops == 0 {
		t.Error("no receive drops recorded despite 1-slot ring")
	}
	if meta.UniqueSucc == 0 {
		t.Error("scan should still classify some responses")
	}
}

func TestScanImmediateCancel(t *testing.T) {
	in, cfg, _ := testbed(t, 202, "80")
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before Run
	start := time.Now()
	if _, err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Error("pre-cancelled scan did not exit promptly")
	}
}

func TestScanWithLossyNetworkUndercounts(t *testing.T) {
	// With default transient loss, the engine should find slightly fewer
	// services than lossless ground truth (the Wan et al. effect),
	// never more. Reuse the testbed config but run against a lossy sim.
	_, cfg, sink := testbed(t, 203, "80")
	simCfg := netsim.DefaultConfig(203)
	simCfg.BlowbackFraction = 0
	lossy := netsim.New(simCfg)
	link := netsim.NewLink(lossy, 1<<16, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	losslessCfg := simCfg
	losslessCfg.ProbeLoss, losslessCfg.ResponseLoss, losslessCfg.PathBadFraction = 0, 0, 0
	truth := expectedHits(netsim.New(losslessCfg), []uint16{80}, cfg.OptionLayout)
	if int(meta.UniqueSucc) > truth {
		t.Errorf("lossy scan found %d > ground truth %d", meta.UniqueSucc, truth)
	}
	missRate := 1 - float64(meta.UniqueSucc)/float64(truth)
	if missRate < 0.005 || missRate > 0.08 {
		t.Errorf("loss-induced miss rate %.4f, want ~0.027", missRate)
	}
	_ = sink
}

// lockedClock is a concurrency-safe simulated clock: sleeps advance time
// instantly, so retry backoffs cost no wall time in tests.
type lockedClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *lockedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lockedClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func uniqueSuccessSet(recs []output.Record) map[string]bool {
	set := map[string]bool{}
	for _, r := range recs {
		if r.Success && !r.Repeat {
			set[r.Saddr()] = true
		}
	}
	return set
}

func TestScanAllFirstAttemptsFailMatchesCleanScan(t *testing.T) {
	// 100% transient-error injection on first attempts: with retries the
	// scan must reach exactly the same unique-success set as a clean run.
	in, cfg, sink := testbed(t, 210, "80")
	link := netsim.NewLink(in, 1<<16, 0)
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	metaClean, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	link.Close()

	in2, cfg2, sink2 := testbed(t, 210, "80")
	cfg2.Clock = &lockedClock{now: time.Unix(0, 0)}
	link2 := netsim.NewLink(in2, 1<<16, 0)
	defer link2.Close()
	faulty := netsim.NewFaultyTransport(link2, netsim.FaultConfig{FailFirstN: 1})
	s2, err := New(cfg2, faulty)
	if err != nil {
		t.Fatal(err)
	}
	meta2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatalf("all-transient scan failed: %v", err)
	}
	if meta2.PacketsSent != 16384 || meta2.SendDrops != 0 {
		t.Errorf("sent %d drops %d, want 16384/0", meta2.PacketsSent, meta2.SendDrops)
	}
	if meta2.SendErrors != 16384 || meta2.SendRetries != 16384 {
		t.Errorf("send_errors %d retries %d, want 16384 each", meta2.SendErrors, meta2.SendRetries)
	}
	if meta2.UniqueSucc != metaClean.UniqueSucc {
		t.Errorf("faulty run found %d services, clean run %d", meta2.UniqueSucc, metaClean.UniqueSucc)
	}
	assertBooksBalance(t, metaClean, s.Registry(), uint64(len(sink.all())))
	assertBooksBalance(t, meta2, s2.Registry(), uint64(len(sink2.all())))
	cleanSet, faultySet := uniqueSuccessSet(sink.all()), uniqueSuccessSet(sink2.all())
	if len(cleanSet) != len(faultySet) {
		t.Fatalf("success sets differ in size: %d vs %d", len(cleanSet), len(faultySet))
	}
	for ip := range cleanSet {
		if !faultySet[ip] {
			t.Errorf("clean-run success %s missing from faulty run", ip)
		}
	}
}

func TestScanRetryExhaustionDropsHonestly(t *testing.T) {
	// When transient failures outlast the retry budget, every probe is
	// dropped, counted as send_drops — never as sent — and the scan still
	// terminates cleanly (ZMap's give-up-and-move-on semantics).
	in, cfg, sink := testbed(t, 211, "80")
	cfg.Retries = 2
	cfg.Clock = &lockedClock{now: time.Unix(0, 0)}
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	faulty := netsim.NewFaultyTransport(link, netsim.FaultConfig{FailFirstN: 5})
	s, err := New(cfg, faulty)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("drop-everything scan errored: %v", err)
	}
	if meta.PacketsSent != 0 {
		t.Errorf("PacketsSent = %d, want 0 (nothing reached the wire)", meta.PacketsSent)
	}
	if meta.SendDrops != 16384 {
		t.Errorf("SendDrops = %d, want 16384", meta.SendDrops)
	}
	// 3 attempts per probe (1 + 2 retries), all failed.
	if meta.SendErrors != 3*16384 || meta.SendRetries != 2*16384 {
		t.Errorf("send_errors %d retries %d, want %d/%d",
			meta.SendErrors, meta.SendRetries, 3*16384, 2*16384)
	}
	if meta.UniqueSucc != 0 || len(sink.all()) != 0 {
		t.Error("successes reported despite zero delivered probes")
	}
	if inner, _, _ := faulty.Stats(); inner != 0 {
		t.Errorf("inner link saw %d sends", inner)
	}
	assertBooksBalance(t, meta, s.Registry(), 0)
}

func TestScanFatalMidScanAbortsCleanlyAndResumes(t *testing.T) {
	// A transport that dies permanently mid-scan: sender supervision
	// restarts each thread up to its budget, Run returns ErrSenderAborted
	// with accurate metadata, and the reported progress resumes to exact
	// full coverage on a healthy transport.
	in, cfg, sink1 := testbed(t, 212, "80")
	cfg.Clock = &lockedClock{now: time.Unix(0, 0)}
	link1 := netsim.NewLink(in, 1<<16, 0)
	// FatalAfter below the ~4096-element per-thread subshard, so no
	// thread can finish before the wall and all four must abort.
	faulty := netsim.NewFaultyTransport(link1, netsim.FaultConfig{FatalAfter: 2000})
	s1, err := New(cfg, faulty)
	if err != nil {
		t.Fatal(err)
	}
	meta1, err := s1.Run(context.Background())
	if !errors.Is(err, ErrSenderAborted) {
		t.Fatalf("Run error = %v, want ErrSenderAborted", err)
	}
	if meta1 == nil {
		t.Fatal("aborted run must still return metadata")
	}
	link1.Close()
	if meta1.PacketsSent != 2000 {
		t.Errorf("PacketsSent = %d, want exactly 2000 (FatalAfter)", meta1.PacketsSent)
	}
	// 4 threads, default budget of 2 restarts each, all exhausted.
	if meta1.SenderRestarts != 8 {
		t.Errorf("SenderRestarts = %d, want 8", meta1.SenderRestarts)
	}
	if meta1.SendErrors == 0 {
		t.Error("fatal attempts not counted as send errors")
	}
	if len(meta1.ThreadProgress) != 4 {
		t.Fatalf("thread progress %v", meta1.ThreadProgress)
	}
	assertBooksBalance(t, meta1, s1.Registry(), uint64(len(sink1.all())))

	// Resume on a healthy link: the union must cover every target once.
	in2, cfg2, sink2 := testbed(t, 212, "80")
	cfg2.Seed = cfg.Seed
	cfg2.Resume = resumeFrom(s1, meta1.ThreadProgress)
	link2 := netsim.NewLink(in2, 1<<16, 0)
	defer link2.Close()
	s2, err := New(cfg2, link2)
	if err != nil {
		t.Fatal(err)
	}
	meta2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed scan failed: %v", err)
	}
	if total := meta1.PacketsSent + meta2.PacketsSent; total != 16384 {
		t.Errorf("combined probes %d (=%d+%d), want exactly 16384",
			total, meta1.PacketsSent, meta2.PacketsSent)
	}
	assertBooksBalance(t, meta2, s2.Registry(), uint64(len(sink2.all())))
	union := uniqueSuccessSet(sink1.all())
	for ip := range uniqueSuccessSet(sink2.all()) {
		union[ip] = true
	}
	want := expectedHits(in, []uint16{80}, cfg.OptionLayout)
	if len(union) != want {
		t.Errorf("union of runs found %d services, ground truth %d", len(union), want)
	}
}

func TestScanStalledTransportHonorsMaxRuntime(t *testing.T) {
	// A wedged driver that stalls every send must not hang the scan:
	// MaxRuntime bounds the sending phase and progress stays resumable.
	in, cfg, sink := testbed(t, 213, "80")
	cfg.MaxRuntime = 250 * time.Millisecond
	link := netsim.NewLink(in, 1<<16, 0)
	faulty := netsim.NewFaultyTransport(link, netsim.FaultConfig{
		StallEvery: 1,
		StallFor:   10 * time.Millisecond,
	})
	s, err := New(cfg, faulty)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("stalled scan errored: %v", err)
	}
	link.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled scan took %v; MaxRuntime not honored", elapsed)
	}
	if meta.PacketsSent == 0 || meta.PacketsSent >= 16384 {
		t.Fatalf("PacketsSent = %d, want partial progress", meta.PacketsSent)
	}
	assertBooksBalance(t, meta, s.Registry(), uint64(len(sink.all())))

	// The partial progress must resume to exact full coverage.
	in2, cfg2, _ := testbed(t, 213, "80")
	cfg2.Seed = cfg.Seed
	cfg2.Resume = resumeFrom(s, meta.ThreadProgress)
	link2 := netsim.NewLink(in2, 1<<16, 0)
	defer link2.Close()
	s2, err := New(cfg2, link2)
	if err != nil {
		t.Fatal(err)
	}
	meta2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if total := meta.PacketsSent + meta2.PacketsSent; total != 16384 {
		t.Errorf("combined probes %d, want exactly 16384", total)
	}
}

func TestScanDegradesRateUnderSustainedFaults(t *testing.T) {
	// Sustained transient failure makes senders lower their rate share
	// (and report the degraded interval); recovery restores it, and every
	// probe that survives its retry budget still goes out.
	in, cfg, sink := testbed(t, 214, "80")
	cfg.Rate = 400_000 // 100k pps per thread, on the simulated clock
	cfg.Clock = &lockedClock{now: time.Unix(0, 0)}
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	faulty := netsim.NewFaultyTransport(link, netsim.FaultConfig{FailFirstSends: 2000})
	s, err := New(cfg, faulty)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("scan errored: %v", err)
	}
	if meta.DegradedSecs <= 0 {
		t.Error("no degraded time reported despite sustained failure burst")
	}
	if meta.SendErrors == 0 || meta.SendRetries == 0 {
		t.Errorf("fault counters empty: errors=%d retries=%d", meta.SendErrors, meta.SendRetries)
	}
	if meta.PacketsSent+meta.SendDrops != 16384 {
		t.Errorf("sent %d + dropped %d != 16384", meta.PacketsSent, meta.SendDrops)
	}
	if meta.PacketsSent < 14000 {
		t.Errorf("only %d probes survived a 2000-attempt burst", meta.PacketsSent)
	}
	assertBooksBalance(t, meta, s.Registry(), uint64(len(sink.all())))
}
