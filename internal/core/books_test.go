package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"zmapgo/internal/metrics"
	"zmapgo/internal/netsim"
	"zmapgo/internal/output"
	"zmapgo/internal/shard"
)

// registryValues renders reg as /metrics serves it and returns the
// un-labelled samples by series name.
func registryValues(t testing.TB, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		vals[name] = v
	}
	return vals
}

// jsonNumbers decodes one JSON object and keeps its numeric members.
func jsonNumbers(t testing.TB, doc []byte) map[string]float64 {
	t.Helper()
	var raw map[string]any
	if err := json.Unmarshal(doc, &raw); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, doc)
	}
	nums := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			nums[k] = f
		}
	}
	return nums
}

// assertBooksBalance checks the conservation laws of DESIGN.md
// "Observability" once Run has returned: every count of the table reads
// the same on /metrics as in the metadata document, every target and
// every frame landed in exactly one terminal count, and every valid
// response became one row the sink was offered. offered is how many rows
// the test's Results writer saw.
func assertBooksBalance(t testing.TB, meta *output.Metadata, reg *metrics.Registry, offered uint64) {
	t.Helper()
	doc, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	inMeta, onPage := jsonNumbers(t, doc), registryValues(t, reg)
	for _, d := range Counts() {
		got, ok := onPage[d.Metric]
		if !ok {
			if !d.HealthOnly {
				t.Errorf("%s is in the table but not on /metrics", d.Metric)
			}
			continue
		}
		if d.Meta != "" && got != inMeta[d.Meta] {
			t.Errorf("%s = %v on /metrics, metadata %s = %v", d.Metric, got, d.Meta, inMeta[d.Meta])
		}
	}
	n := func(name string) uint64 { return uint64(onPage[name]) }

	targets, skipped := n("zmapgo_targets_total"), n("zmapgo_quarantine_skipped_total")
	sent, drops := n("zmapgo_sent_total"), n("zmapgo_send_drops_total")
	if (targets-skipped)*uint64(meta.Probes) != sent+drops {
		t.Errorf("(%d targets - %d skipped) x %d probes != %d sent + %d dropped",
			targets, skipped, meta.Probes, sent, drops)
	}

	valid := n("zmapgo_valid_total")
	rejected := n("zmapgo_recv_truncated_total") + n("zmapgo_recv_unsupported_total") +
		n("zmapgo_recv_checksum_fail_total") + n("zmapgo_recv_invalid_total")
	if recv := n("zmapgo_recv_total"); recv != rejected+valid {
		t.Errorf("%d frames received != %d rejected + %d valid", recv, rejected, valid)
	}

	// The engine applies no filter of its own, so a row is written or lost.
	written, lost := n("zmapgo_results_written_total"), n("zmapgo_results_rows_lost_total")
	if valid != offered || valid != written+lost {
		t.Errorf("%d valid responses, %d rows offered, %d written + %d lost", valid, offered, written, lost)
	}

	hits, misses := n("zmapgo_dedup_hits_total"), n("zmapgo_dedup_misses_total")
	if dups := n("zmapgo_duplicate_total"); dups != hits {
		t.Errorf("%d duplicates != %d dedup hits", dups, hits)
	}
	if hits+misses != valid && hits+misses != 0 { // 0 and 0 with dedup off
		t.Errorf("%d dedup hits + %d misses != %d valid responses", hits, misses, valid)
	}
	if unique, success := n("zmapgo_unique_success_total"), n("zmapgo_success_total"); unique > success || success > valid {
		t.Errorf("want unique %d <= success %d <= valid %d", unique, success, valid)
	}

	// Every frame sent or dropped was rendered with one word, and every
	// other word classified a frame that parsed and passed its checksums.
	if sendersFinished(meta) {
		words := n("zmapgo_validate_computes_total")
		parsed := n("zmapgo_recv_total") - n("zmapgo_recv_truncated_total") -
			n("zmapgo_recv_unsupported_total") - n("zmapgo_recv_checksum_fail_total")
		if words < sent+drops || words > sent+drops+parsed {
			t.Errorf("%d validation words outside [%d sent + %d dropped, + %d parsed frames]",
				words, sent, drops, parsed)
		}
	}
}

// sendersFinished reports whether every frame the senders rendered was
// attempted: no restart after a send error (which renders its batch
// again), and no cancellation (which leaves a batch unsent), so every
// thread walked its whole subshard or the scan reached its cap.
func sendersFinished(meta *output.Metadata) bool {
	if meta.SenderRestarts > 0 && meta.SendErrors > 0 {
		return false
	}
	if meta.MaxTargets > 0 && meta.TargetsScanned == meta.MaxTargets {
		return true
	}
	for t, done := range meta.ThreadProgress {
		if done != shard.Plan(shard.Pizza, meta.Group-1, meta.Shards, meta.SenderThreads, meta.ShardIndex, t).Count {
			return false
		}
	}
	return true
}

// RecordsWritten lets the engine book what collectWriter took, so the
// results identity is checked end to end in every scenario test.
func (c *collectWriter) RecordsWritten() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return uint64(len(c.records))
}

func TestBooksBalanceOnACleanScan(t *testing.T) {
	// Nothing answers a null transport, so every validation word is a
	// rendered probe's.
	t.Run("null", func(t *testing.T) {
		cfg := nullScan(t, 12, 2)
		cfg.ProbesPerTarget = 2
		s, err := New(cfg, &nullTransport{})
		if err != nil {
			t.Fatal(err)
		}
		meta, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		assertBooksBalance(t, meta, s.Registry(), 0)
		if v := registryValues(t, s.Registry()); v["zmapgo_validate_computes_total"] != 2*4096 || meta.PacketsSent != 2*4096 {
			t.Errorf("%v validation words, %d sent, want %d each", v["zmapgo_validate_computes_total"], meta.PacketsSent, 2*4096)
		}
	})

	// Double probing, two ports, a status stream and dedup on: the
	// identities hold, and the last status line repeats the book.
	in, cfg, sink := testbed(t, 230, "80,443")
	cfg.ProbesPerTarget = 2
	var status safeBuffer
	status.buf = &bytes.Buffer{}
	cfg.StatusWriter, cfg.StatusFormat, cfg.StatusInterval = &status, "json", 20*time.Millisecond
	link := netsim.NewLink(in, 1<<17, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertBooksBalance(t, meta, s.Registry(), uint64(len(sink.all())))
	if meta.Duplicates == 0 {
		t.Error("double probing produced no duplicates; the dedup identities are vacuous")
	}

	lines := strings.Split(strings.TrimSpace(status.String()), "\n")
	last, onPage := jsonNumbers(t, []byte(lines[len(lines)-1])), registryValues(t, s.Registry())
	for _, d := range Counts() {
		if d.Status == "" {
			continue
		}
		if got, ok := last[d.Status]; !ok || got != onPage[d.Metric] {
			t.Errorf("last status line %s = %v (present %v), %s = %v", d.Status, got, ok, d.Metric, onPage[d.Metric])
		}
	}
	if want := float64(meta.UniqueSucc) * 2 / float64(meta.PacketsSent); last["hit_rate"] != want || meta.HitRate != want {
		t.Errorf("hit rate: status %v, metadata %v, want %v (per target, not per probe)", last["hit_rate"], meta.HitRate, want)
	}
}

func TestBooksBalanceWithDedupOff(t *testing.T) {
	in, cfg, sink := testbed(t, 231, "80")
	cfg.ProbesPerTarget = 2
	cfg.DedupWindow = -1
	link := netsim.NewLink(in, 1<<17, 0)
	defer link.Close()
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertBooksBalance(t, meta, s.Registry(), uint64(len(sink.all())))
	if v := registryValues(t, s.Registry()); v["zmapgo_dedup_hits_total"] != 0 || v["zmapgo_dedup_misses_total"] != 0 {
		t.Errorf("dedup outcomes counted with dedup off: %v hits, %v misses",
			v["zmapgo_dedup_hits_total"], v["zmapgo_dedup_misses_total"])
	}
}

// TestEveryCountIsDocumented keeps DESIGN.md's table of counts complete:
// a count added to the book without a row there fails here.
func TestEveryCountIsDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## Observability\n")
	if !ok {
		t.Fatal("DESIGN.md has no Observability section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	seen := map[string]bool{}
	for _, d := range Counts() {
		if seen[d.Metric] {
			t.Errorf("%s appears twice in the book's table", d.Metric)
		}
		seen[d.Metric] = true
		if !strings.Contains(section, "| `"+d.Metric+"` |") {
			t.Errorf("%s has no row in DESIGN.md's table of counts", d.Metric)
		}
	}
}

// TestScanAllocationBudget pins what a whole small scan allocates: New
// plus Run of 2^12 targets on a null transport. The repo's benchmark
// bounds allocs_per_target at 4%, which on its send-only workload is
// about six allocations per scan, so a per-count heap object or closure
// shows up here first. The ceiling is the best of five the commit before
// the book measured with this same test on go1.24 (246; it read 231 with
// the book).
func TestScanAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	scan := func() uint64 {
		cfg := nullScan(t, 12, 2)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := New(cfg, &nullTransport{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	scan() // warm the runtime's own pools
	best := scan()
	for i := 0; i < 4; i++ {
		best = min(best, scan())
	}
	const ceiling = 246
	if best > ceiling {
		t.Errorf("New+Run of a 2^12-target scan allocated %d objects, ceiling %d", best, ceiling)
	}
	t.Logf("New+Run: %d allocations", best)
}

// panicTransport is a nullTransport whose panicOn-th SendBatch call
// panics before sending anything. One sender thread calls it.
type panicTransport struct {
	nullTransport
	calls, panicOn int
}

func (t *panicTransport) SendBatch(frames [][]byte) (int, error) {
	if t.calls++; t.calls == t.panicOn {
		panic("transport driver bug")
	}
	return t.nullTransport.SendBatch(frames)
}

func TestSenderPanicKeepsTheBooks(t *testing.T) {
	// A sender that panics mid-flush is restarted and takes the batch in
	// flight up again; that batch's targets must not stay on the books.
	for _, maxTargets := range []uint64{0, 4000} {
		t.Run(fmt.Sprintf("max_targets=%d", maxTargets), func(t *testing.T) {
			cfg := nullScan(t, 12, 1)
			cfg.MaxTargets = maxTargets
			s, err := New(cfg, &panicTransport{panicOn: 3})
			if err != nil {
				t.Fatal(err)
			}
			meta, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(4096)
			if maxTargets > 0 {
				want = maxTargets
			}
			if meta.TargetsScanned != want || meta.PacketsSent != want || meta.SenderRestarts != 1 {
				t.Errorf("targets %d, sent %d, restarts %d; want %d, %d, 1",
					meta.TargetsScanned, meta.PacketsSent, meta.SenderRestarts, want, want)
			}
			assertBooksBalance(t, meta, s.Registry(), 0)
		})
	}
}
