package zmap

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"zmapgo/internal/core"
)

// parseMetrics returns the un-labeled samples of a Prometheus text
// exposition by series name.
func parseMetrics(t testing.TB, exposition string) map[string]float64 {
	t.Helper()
	vals := map[string]float64{}
	for _, line := range strings.Split(exposition, "\n") {
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

// metricValue extracts a single un-labeled sample from an exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	v, ok := parseMetrics(t, exposition)[name]
	if !ok {
		t.Fatalf("metric %s not found in exposition:\n%s", name, exposition)
	}
	return v
}

// metricValues returns every un-labeled sample reg exposes.
func metricValues(t testing.TB, reg *MetricsRegistry) map[string]float64 {
	t.Helper()
	var expo bytes.Buffer
	if err := WriteMetrics(&expo, reg); err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, expo.String())
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

// assertBooksBalance mirrors internal/core's helper of the same name for
// scans compiled from Options: the conservation laws of DESIGN.md
// "Observability", read off the registry and the Summary once Run has
// returned. out is the scan's Results stream when it is text under the
// default filter (one line per unique success), nil when Options.Results
// was nil and every valid response counts as a written row.
func assertBooksBalance(t testing.TB, sum *Summary, reg *MetricsRegistry, out *bytes.Buffer) {
	t.Helper()
	doc, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	inSummary, onPage := jsonNumbers(t, doc), metricValues(t, reg)
	for _, d := range core.Counts() {
		got, ok := onPage[d.Metric]
		if !ok {
			if !d.HealthOnly {
				t.Errorf("%s is in the table but not on /metrics", d.Metric)
			}
			continue
		}
		if d.Meta != "" && got != inSummary[d.Meta] {
			t.Errorf("%s = %v on /metrics, Summary %s = %v", d.Metric, got, d.Meta, inSummary[d.Meta])
		}
	}
	n := func(name string) uint64 { return uint64(onPage[name]) }

	targets, skipped := n("zmapgo_targets_total"), n("zmapgo_quarantine_skipped_total")
	sent, drops := n("zmapgo_sent_total"), n("zmapgo_send_drops_total")
	if (targets-skipped)*uint64(sum.Probes) != sent+drops {
		t.Errorf("(%d targets - %d skipped) x %d probes != %d sent + %d dropped",
			targets, skipped, sum.Probes, sent, drops)
	}

	valid := n("zmapgo_valid_total")
	rejected := n("zmapgo_recv_truncated_total") + n("zmapgo_recv_unsupported_total") +
		n("zmapgo_recv_checksum_fail_total") + n("zmapgo_recv_invalid_total")
	if recv := n("zmapgo_recv_total"); recv != rejected+valid {
		t.Errorf("%d frames received != %d rejected + %d valid", recv, rejected, valid)
	}

	written, lost := n("zmapgo_results_written_total"), n("zmapgo_results_rows_lost_total")
	unique, success := n("zmapgo_unique_success_total"), n("zmapgo_success_total")
	if out == nil {
		if valid != written+lost {
			t.Errorf("%d valid responses != %d rows written + %d lost, with no filter", valid, written, lost)
		}
	} else {
		// The default filter holds back everything but unique successes.
		if rows := uint64(strings.Count(out.String(), "\n")); rows != written || unique != written+lost {
			t.Errorf("%d unique successes, %d rows written + %d lost, %d rows in the stream", unique, written, lost, rows)
		}
	}

	hits, misses := n("zmapgo_dedup_hits_total"), n("zmapgo_dedup_misses_total")
	if dups := n("zmapgo_duplicate_total"); dups != hits {
		t.Errorf("%d duplicates != %d dedup hits", dups, hits)
	}
	if hits+misses != valid && hits+misses != 0 { // 0 and 0 with dedup off
		t.Errorf("%d dedup hits + %d misses != %d valid responses", hits, misses, valid)
	}
	if unique > success || success > valid {
		t.Errorf("want unique %d <= success %d <= valid %d", unique, success, valid)
	}
}

// The acceptance path: scan the simulator with a JSON status stream and
// a live registry; the Prometheus exposition must agree with the
// metadata summary, the status lines must carry latency quantiles, and
// the lifecycle phases must all be present.
func TestScanMetricsAgreeWithSummary(t *testing.T) {
	in := NewInternet(SimOptions{Seed: 500, Lossless: true, DisableBlowback: true})
	link := in.NewLink(1<<16, 0)
	defer link.Close()

	var status bytes.Buffer
	opts := Options{
		Ranges:         []string{"10.0.0.0/20"},
		Ports:          "80",
		Seed:           7,
		Threads:        2,
		Cooldown:       300 * time.Millisecond,
		StatusUpdates:  &status,
		StatusFormat:   "json",
		StatusInterval: 20 * time.Millisecond,
	}
	s, err := opts.Compile(link)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Every count of the engine's book reads the same on /metrics, in
	// the Summary and on the last status line — whichever of the three
	// carry it — and the conservation laws hold between them.
	assertBooksBalance(t, sum, s.Metrics(), nil)
	lines := strings.Split(strings.TrimSpace(status.String()), "\n")
	lastCounts, onPage := jsonNumbers(t, []byte(lines[len(lines)-1])), metricValues(t, s.Metrics())
	for _, d := range core.Counts() {
		if d.HealthOnly || d.Status == "" {
			continue
		}
		if got, ok := lastCounts[d.Status]; !ok || got != onPage[d.Metric] {
			t.Errorf("last status line %s = %v (present %v), %s = %v", d.Status, got, ok, d.Metric, onPage[d.Metric])
		}
	}
	if sum.PacketsSent == 0 || sum.UniqueSucc == 0 || sum.ResultsWritten != sum.ValidResponses {
		t.Errorf("vacuous scan: %d sent, %d unique, %d of %d rows written",
			sum.PacketsSent, sum.UniqueSucc, sum.ResultsWritten, sum.ValidResponses)
	}

	// Latency histograms recorded on the hot paths must have samples.
	for _, h := range []string{
		"zmapgo_send_latency_seconds",
		"zmapgo_recv_validate_seconds",
		"zmapgo_sim_response_delay_seconds",
	} {
		if onPage[h+"_count"] == 0 {
			t.Errorf("%s_count = 0, want samples", h)
		}
	}
	if got := onPage["zmapgo_send_latency_seconds_count"]; uint64(got) < sum.PacketsSent {
		t.Errorf("send latency count %v < packets sent %d", got, sum.PacketsSent)
	}
	if onPage["zmapgo_validate_computes_total"] == 0 {
		t.Error("validator compute counter never incremented")
	}
	// Lifecycle phases, in order, each with a start and a duration.
	wantPhases := []string{"generation", "send", "cooldown", "drain", "done"}
	if len(sum.Phases) != len(wantPhases) {
		t.Fatalf("phases = %+v, want %v", sum.Phases, wantPhases)
	}
	for i, p := range sum.Phases {
		if p.Phase != wantPhases[i] {
			t.Errorf("phase[%d] = %q, want %q", i, p.Phase, wantPhases[i])
		}
		if p.Start.IsZero() || p.DurationSecs < 0 {
			t.Errorf("phase %q has zero start or negative duration", p.Phase)
		}
	}

	// JSON status stream: every line is an object; the last carries
	// latency quantiles and per-thread rates.
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last status line not JSON: %v", err)
	}
	for _, key := range []string{
		"sent", "recv", "hit_rate", "thread_pps",
		"send_latency_p50_secs", "send_latency_p90_secs", "send_latency_p99_secs",
		"recv_latency_p50_secs", "recv_latency_p90_secs", "recv_latency_p99_secs",
	} {
		if _, ok := last[key]; !ok {
			t.Errorf("status line missing %q: %v", key, last)
		}
	}
	p50, _ := last["send_latency_p50_secs"].(float64)
	p90, _ := last["send_latency_p90_secs"].(float64)
	p99, _ := last["send_latency_p99_secs"].(float64)
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	// Receive-side quantiles merge every worker's histogram shard; they
	// must be present, monotone, and non-zero once responses have been
	// validated (the scan above guarantees validated traffic).
	r50, _ := last["recv_latency_p50_secs"].(float64)
	r90, _ := last["recv_latency_p90_secs"].(float64)
	r99, _ := last["recv_latency_p99_secs"].(float64)
	if !(r50 <= r90 && r90 <= r99) {
		t.Errorf("recv quantiles not monotone: p50=%v p90=%v p99=%v", r50, r90, r99)
	}
	if r99 <= 0 {
		t.Errorf("recv_latency_p99_secs = %v, want > 0 after validated traffic", r99)
	}
	if threads, ok := last["thread_pps"].([]any); !ok || len(threads) != 2 {
		t.Errorf("thread_pps = %v, want 2 entries", last["thread_pps"])
	}
}

// Two scans in sequence on one registry: every zmapgo_* series must
// describe the second scan once it has run — its counts and its latency
// histograms alike — not the sum of both, and not a mix of the two.
func TestSecondScanOnSharedRegistryStillBalances(t *testing.T) {
	scan := func(reg *MetricsRegistry, ranges string) (*Scanner, *Summary, *bytes.Buffer) {
		in := NewInternet(SimOptions{Seed: 500, Lossless: true, DisableBlowback: true})
		link := in.NewLink(1<<16, 0)
		defer link.Close()
		var out bytes.Buffer
		s, err := Options{
			Ranges:   []string{ranges},
			Ports:    "80",
			Seed:     7,
			Threads:  2,
			Cooldown: 150 * time.Millisecond,
			Results:  &out,
			Metrics:  reg,
		}.Compile(link)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s, sum, &out
	}
	first, sum1, out1 := scan(nil, "10.0.0.0/20")
	assertBooksBalance(t, sum1, first.Metrics(), out1)
	// The second scan is twice the size, so a series still bound to the
	// first, or one that accumulated, cannot read right by accident.
	second, sum2, out2 := scan(first.Metrics(), "10.0.0.0/19")
	if second.Metrics() != first.Metrics() {
		t.Fatal("the second scan did not adopt the shared registry")
	}
	assertBooksBalance(t, sum2, second.Metrics(), out2)
	if sum2.PacketsSent != 2*sum1.PacketsSent || sum2.ValidResponses == 0 {
		t.Fatalf("scans sent %d then %d probes, %d valid: want the second twice the first",
			sum1.PacketsSent, sum2.PacketsSent, sum2.ValidResponses)
	}
	page := metricValues(t, second.Metrics())
	if got := uint64(page["zmapgo_send_latency_seconds_count"]); got != sum2.PacketsSent {
		t.Errorf("send latency histogram holds %d samples, the second scan sent %d probes", got, sum2.PacketsSent)
	}
	if got := uint64(page["zmapgo_recv_validate_seconds_count"]); got != sum2.PacketsRecv {
		t.Errorf("receive latency histogram holds %d samples, the second scan received %d frames", got, sum2.PacketsRecv)
	}
	if got := uint64(page["zmapgo_sim_response_delay_seconds_count"]); got != sum2.PacketsRecv {
		t.Errorf("sim delay histogram holds %d samples, the second scan's link scheduled %d responses", got, sum2.PacketsRecv)
	}
}

// The HTTP endpoint serves the same registry the scan records into.
func TestMetricsServerServesScanRegistry(t *testing.T) {
	in := NewInternet(SimOptions{Seed: 500, Lossless: true, DisableBlowback: true})
	link := in.NewLink(1<<16, 0)
	defer link.Close()

	opts := Options{
		Ranges:   []string{"10.0.0.0/22"},
		Ports:    "80",
		Seed:     7,
		Cooldown: 100 * time.Millisecond,
	}
	s, err := opts.Compile(link)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMetricsServer("127.0.0.1:0", s.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	if got := metricValue(t, string(body), "zmapgo_sent_total"); uint64(got) != sum.PacketsSent {
		t.Errorf("served zmapgo_sent_total = %v, metadata says %d", got, sum.PacketsSent)
	}

	// pprof rides along on the same mux.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status %d", resp.StatusCode)
	}
}

// CSV status keeps the legacy column set, optionally preceded by the
// pinned header, regardless of the metrics wiring.
func TestScanStatusCSVWithHeader(t *testing.T) {
	in := NewInternet(SimOptions{Seed: 500, Lossless: true, DisableBlowback: true})
	link := in.NewLink(1<<16, 0)
	defer link.Close()

	var status bytes.Buffer
	opts := Options{
		Ranges:          []string{"10.0.0.0/22"},
		Ports:           "80",
		Seed:            7,
		Cooldown:        150 * time.Millisecond,
		StatusUpdates:   &status,
		StatusCSVHeader: true,
		StatusInterval:  20 * time.Millisecond,
	}
	s, err := opts.Compile(link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(status.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want header plus data, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_unix,sent,") {
		t.Errorf("first line is not the header: %q", lines[0])
	}
	if fields := strings.Split(lines[1], ","); len(fields) != len(strings.Split(lines[0], ",")) {
		t.Errorf("data width %d != header width %d", len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")))
	}
}
