package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {7, 7}, // unit buckets
		{8, 8}, {9, 9}, {15, 15}, // first octave, width 1
		{16, 16}, {17, 16}, {18, 17}, {31, 23}, // width 2
		{32, 24}, {63, 31}, // width 4
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and
	// bucket bounds must tile the value space without gaps or overlaps.
	values := []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1025,
		1_000_000, 123_456_789, math.MaxUint64 / 2, math.MaxUint64}
	for _, v := range values {
		i := bucketIndex(v)
		lo, hi := bucketBounds(i)
		if v < lo || v > hi {
			t.Errorf("value %d in bucket %d with bounds [%d, %d]", v, i, lo, hi)
		}
	}
	for i := 1; i < numBuckets; i++ {
		lo, hi := bucketBounds(i)
		_, prevHi := bucketBounds(i - 1)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d starts at %d, previous ends at %d", i, lo, prevHi)
		}
		if hi < lo {
			t.Fatalf("bucket %d inverted bounds [%d, %d]", i, lo, hi)
		}
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Log-linear with 8 sub-buckets per octave: bucket width must never
	// exceed 1/8 of the bucket's lower bound (for values >= 8).
	for i := subCount; i < numBuckets; i++ {
		lo, hi := bucketBounds(i)
		if width := hi - lo + 1; float64(width) > float64(lo)/subCount+1 {
			t.Fatalf("bucket %d [%d, %d] wider than 12.5%%", i, lo, hi)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(1)
	// 1000 observations: 1µs, 2µs, ..., 1000µs. True p50=500µs, p90=900µs,
	// p99=990µs; bucket error is at most 12.5%.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.90, 900 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := s.Quantile(c.q)
		err := math.Abs(float64(got-c.want)) / float64(c.want)
		if err > 0.13 {
			t.Errorf("p%.0f = %v, want %v ±12.5%% (err %.1f%%)", c.q*100, got, c.want, err*100)
		}
	}
	if got := s.Quantile(0); got > 2*time.Microsecond {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Quantile(1); got < 875*time.Microsecond {
		t.Errorf("p100 = %v", got)
	}
}

func TestHistogramEmptyAndMean(t *testing.T) {
	h := NewHistogram(2)
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Count != 0 {
		t.Errorf("empty histogram: %+v", s)
	}
	h.Shard(0).Record(10 * time.Millisecond)
	h.Shard(1).Record(20 * time.Millisecond)
	s = h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if m := s.Mean(); m != 15*time.Millisecond {
		t.Errorf("mean = %v", m)
	}
	h.Record(-time.Second) // negative clamps to 0, must not panic
	if h.Snapshot().Count != 3 {
		t.Error("negative record not counted")
	}
}

func TestHistogramConcurrentRecordSnapshot(t *testing.T) {
	h := NewHistogram(4)
	const perG = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				s.Quantile(0.99)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sh := h.Shard(g)
			for i := 0; i < perG; i++ {
				sh.Record(time.Duration(i) * time.Nanosecond)
			}
		}(g)
	}
	// Let writers finish, then stop the reader.
	deadline := time.Now().Add(5 * time.Second)
	for h.Snapshot().Count < 4*perG && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := h.Snapshot().Count; got != 4*perG {
		t.Errorf("count = %d, want %d", got, 4*perG)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "a counter")
	b := r.Counter("x_total", "a counter")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	h1 := r.Histogram("h_seconds", "h", 2)
	h2 := r.Histogram("h_seconds", "h", 8)
	if h1 != h2 {
		t.Error("same name returned distinct histograms")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

func TestVarMetricsRebindUnderScrape(t *testing.T) {
	// A registry that outlives a scan: each new owner rebinds the series
	// to its own counter and histogram while a scraper keeps reading.
	// Every page must show one owner's values, and the last owner wins.
	r := NewRegistry()
	const owners = 50
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 1; i <= owners; i++ {
		var v atomic.Uint64
		v.Store(uint64(i))
		r.CounterVar("scan_sent_total", "Probes sent.", &v)
		h := r.NewHistogram("scan_latency_seconds", "Latency.", 1)
		for j := 0; j < i; j++ {
			h.Record(time.Microsecond)
		}
	}
	close(done)
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("scan_sent_total %d\n", owners),
		fmt.Sprintf("scan_latency_seconds_count %d\n", owners),
		"# TYPE scan_sent_total counter\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("page lacks %q after the last rebind:\n%s", want, buf.String())
		}
	}
}

func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zmapgo_test_sent_total", "Probes sent.")
	c.Add(42)
	g := r.Gauge("zmapgo_test_rate_pps", "Configured rate.")
	g.Set(1250.5)
	r.CounterFunc("zmapgo_test_recv_total", "Frames received.", func() uint64 { return 7 })
	h := r.Histogram("zmapgo_test_latency_seconds", "Send latency.", 1)
	// Two observations in the same octave (1024–2047 ns) and one larger.
	h.Record(1100 * time.Nanosecond)
	h.Record(1800 * time.Nanosecond)
	h.Record(70 * time.Microsecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP zmapgo_test_latency_seconds Send latency.
# TYPE zmapgo_test_latency_seconds histogram
zmapgo_test_latency_seconds_bucket{le="2.048e-06"} 2
zmapgo_test_latency_seconds_bucket{le="7.3728e-05"} 3
zmapgo_test_latency_seconds_bucket{le="+Inf"} 3
zmapgo_test_latency_seconds_sum 7.29e-05
zmapgo_test_latency_seconds_count 3
# HELP zmapgo_test_rate_pps Configured rate.
# TYPE zmapgo_test_rate_pps gauge
zmapgo_test_rate_pps 1250.5
# HELP zmapgo_test_recv_total Frames received.
# TYPE zmapgo_test_recv_total counter
zmapgo_test_recv_total 7
# HELP zmapgo_test_sent_total Probes sent.
# TYPE zmapgo_test_sent_total counter
zmapgo_test_sent_total 42
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestServerServesMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("zmapgo_test_total", "t").Add(3)
	srv, err := NewServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "zmapgo_test_total 3") {
		t.Errorf("/metrics missing counter: %q", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if body := get("/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index page: %q", body)
	}
}
