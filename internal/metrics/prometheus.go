package metrics

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by name. Histograms emit
// cumulative buckets at octave boundaries — enough resolution for a
// scrape-side quantile while keeping pages small — plus _sum and _count
// in seconds, per Prometheus convention for latency histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	prevName := ""
	for _, e := range r.sortedSnapshot() {
		// Labeled series of one metric share a single HELP/TYPE block.
		if e.name != prevName {
			prevName = e.name
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, sanitizeHelp(e.help)); err != nil {
					return err
				}
			}
			var typ string
			switch e.kind {
			case kindCounter, kindCounterFunc, kindCounterVar:
				typ = "counter"
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, typ); err != nil {
				return err
			}
		}
		series := e.name + e.labels
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", series, e.counter.Value())
		case kindCounterFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", series, e.cfn())
		case kindCounterVar:
			_, err = fmt.Fprintf(w, "%s %d\n", series, e.cvar.Load())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", series, formatFloat(e.gauge.Value()))
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", series, formatFloat(e.gfn()))
		case kindHistogram:
			err = writeHistogram(w, e.name, e.hist.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram emits cumulative le buckets at octave-final boundaries
// between the first and last non-empty buckets. The TYPE line is the
// caller's job (WritePrometheus groups it with HELP).
func writeHistogram(w io.Writer, name string, s HistSnapshot) error {
	first, last := -1, -1
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
	}
	if first >= 0 {
		var cum uint64
		emitted := uint64(0)
		for i := 0; i <= last; i++ {
			cum += s.Counts[i]
			if i < first {
				continue
			}
			// Emit at octave-final sub-buckets (and at the very last
			// non-empty bucket) so the le series stays short.
			octaveEnd := i >= subCount && (i-subCount)%subCount == subCount-1
			if i < subCount {
				octaveEnd = i == subCount-1
			}
			if !octaveEnd && i != last {
				continue
			}
			if cum == emitted && i != last {
				continue // no new observations since the previous le
			}
			emitted = cum
			_, upper := bucketBounds(i)
			le := formatFloat(float64(upper+1) / 1e9)
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, s.Count, name, formatFloat(float64(s.SumNs)/1e9), name, s.Count)
	return err
}
