// Package metrics is the scanner's instrumentation substrate: a
// hot-path-safe registry of counters, gauges, and log-bucketed latency
// histograms. §5 of "Ten Years of ZMap" makes the four output streams
// (data, logs, status updates, metadata) a first-class design principle;
// this package feeds two of them — the 1 Hz status stream gets histogram
// quantiles, and the metadata document gets final counter values — and
// adds a fifth, pull-based view: Prometheus text exposition plus pprof
// over HTTP (see Server).
//
// Design constraints, in order:
//
//  1. Recording must be safe from any goroutine and effectively free: a
//     counter increment is one atomic add; a histogram record is two
//     atomic adds on a per-thread shard (no locks, no allocation, no
//     time formatting). The send loop records per packet at millions of
//     packets per second, so anything slower would show up in the very
//     throughput numbers it measures.
//  2. Reading (snapshot, quantile, exposition) may be arbitrarily slow;
//     it happens at 1 Hz or on scrape, never on the hot path.
//  3. No external dependencies: exposition is hand-rolled Prometheus
//     text format (version 0.0.4), which every Prometheus scraper since
//     2014 accepts.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use, but counters are normally created through Registry.Counter so
// they appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down (stored as atomic bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind tags registry entries for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFunc
	kindCounterVar
	kindGaugeFunc
	kindHistogram
)

// entry is one registered metric series: a bare name plus a pre-rendered
// (already escaped) label block, empty for unlabeled metrics.
type entry struct {
	name   string
	labels string // `{k="v",...}` or ""
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	cfn     func() uint64
	cvar    *atomic.Uint64
	gfn     func() float64
	hist    *Histogram
}

// Registry holds named metrics and renders them as Prometheus text.
// All methods are safe for concurrent use. Registration is get-or-create:
// asking for an existing name of the same kind returns the existing
// metric (so two scans may share one registry); re-registering a func
// or var metric rebinds the series (the latest scan wins); asking for an
// existing name with a different kind panics, since that is always a
// programming error.
type Registry struct {
	mu      sync.Mutex
	order   []*entry
	entries map[string]*entry     // keyed by name+labels (one per series)
	kinds   map[string]metricKind // keyed by bare name (TYPE consistency)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		kinds:   make(map[string]metricKind),
	}
}

// EscapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote, and line feed become
// `\\`, `\"`, and `\n`.
func EscapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\"", `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels builds the `{k="v",...}` block from alternating
// key/value pairs, escaping each value. Odd trailing keys are dropped.
func renderLabels(pairs []string) string {
	if len(pairs) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the entry for the (name, labels) series, creating it
// with the given kind if absent. Panics if the bare name is already
// registered with a different kind.
func (r *Registry) lookup(name, labels, help string, kind metricKind) (*entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("metrics: %q re-registered with a different kind", name))
	}
	r.kinds[name] = kind
	series := name + labels
	if e, ok := r.entries[series]; ok {
		return e, true
	}
	e := &entry{name: name, labels: labels, help: help, kind: kind}
	r.entries[series] = e
	r.order = append(r.order, e)
	return e, false
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help)
}

// CounterWith returns the counter series for name plus alternating
// label key/value pairs (values are escaped at registration), creating
// it if needed.
func (r *Registry) CounterWith(name, help string, labelPairs ...string) *Counter {
	e, existed := r.lookup(name, renderLabels(labelPairs), help, kindCounter)
	if !existed {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help)
}

// GaugeWith returns the gauge series for name plus alternating label
// key/value pairs, creating it if needed.
func (r *Registry) GaugeWith(name, help string, labelPairs ...string) *Gauge {
	e, existed := r.lookup(name, renderLabels(labelPairs), help, kindGauge)
	if !existed {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// CounterFunc registers a read-only counter whose value is fetched from
// fn at exposition time: a count derived from others, or one another
// package owns.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.CounterFuncWith(name, help, fn)
}

// CounterFuncWith is CounterFunc for a labeled series.
func (r *Registry) CounterFuncWith(name, help string, fn func() uint64, labelPairs ...string) {
	e, _ := r.lookup(name, renderLabels(labelPairs), help, kindCounterFunc)
	r.mu.Lock()
	e.cfn = fn
	r.mu.Unlock()
}

// CounterVar exposes a counter the caller owns and increments directly
// (a field of a larger struct), at no cost beyond the pointer: no
// closure per series, one atomic load per scrape.
func (r *Registry) CounterVar(name, help string, v *atomic.Uint64) {
	e, _ := r.lookup(name, "", help, kindCounterVar)
	r.mu.Lock()
	e.cvar = v
	r.mu.Unlock()
}

// GaugeFunc registers a read-only gauge computed by fn at exposition.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	e, _ := r.lookup(name, "", help, kindGaugeFunc)
	r.mu.Lock()
	e.gfn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it with the given
// shard count if needed. Shards decouple writer threads: give each
// sender thread its own shard index and records never contend.
// Histograms do not take labels: the le series would collide.
func (r *Registry) Histogram(name, help string, shards int) *Histogram {
	e, existed := r.lookup(name, "", help, kindHistogram)
	if !existed {
		e.hist = NewHistogram(shards)
	}
	return e.hist
}

// NewHistogram registers a fresh histogram under name and returns it,
// replacing whichever histogram held the name before: the series then
// describes its new owner alone.
func (r *Registry) NewHistogram(name, help string, shards int) *Histogram {
	e, _ := r.lookup(name, "", help, kindHistogram)
	h := NewHistogram(shards)
	r.mu.Lock()
	e.hist = h
	r.mu.Unlock()
	return h
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	for i, e := range r.order {
		out[i] = e.name
	}
	return out
}

// sortedSnapshot copies the entries under the lock, so exposition runs
// without holding it (func metrics may themselves take locks) and sees
// each series as it was bound at that moment even while a later scan
// rebinds it.
func (r *Registry) sortedSnapshot() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]entry, len(r.order))
	for i, e := range r.order {
		out[i] = *e
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// sanitizeHelp keeps HELP lines single-line per the text format.
func sanitizeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}
