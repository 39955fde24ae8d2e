// Package monitor implements the real-time status stream — the third of
// the four output streams §5 prescribes (data, logs, status updates,
// metadata). The writer owns no counts: once per tick the engine's Fill
// callback loads them from the scan's book, the writer derives the rates
// from the previous tick, and one machine-parsable line goes out in CSV
// (ZMap's --status-updates-file format, optionally with a header) or
// JSON (one object per line, with room for per-thread rates and latency
// quantiles).
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Status is one status-stream tick. The writer fills TimeUnix, SentPPS,
// RecvPPS, HitRate and HitRate1m; everything else comes from Fill. CSV
// emits the csvColumns fields; JSON emits everything.
type Status struct {
	TimeUnix       int64   `json:"time_unix"`
	Sent           uint64  `json:"sent"`
	SentPPS        float64 `json:"sent_pps"`
	Recv           uint64  `json:"recv"`
	RecvPPS        float64 `json:"recv_pps"`
	Success        uint64  `json:"success"`
	Unique         uint64  `json:"unique"`
	Duplicates     uint64  `json:"duplicates"`
	Drops          uint64  `json:"drops"`
	SendErrors     uint64  `json:"send_errors"`
	Retries        uint64  `json:"retries"`
	SendDrops      uint64  `json:"send_drops"`
	SenderRestarts uint64  `json:"sender_restarts"`
	DegradedSecs   float64 `json:"degraded_secs"`

	// Receive-path fault classes (appended CSV columns; always in JSON).
	RecvTruncated   uint64 `json:"recv_truncated"`
	RecvUnsupported uint64 `json:"recv_unsupported"`
	RecvChecksum    uint64 `json:"recv_checksum_fail"`
	RecvInvalid     uint64 `json:"recv_invalid"`

	// RowsLost counts result rows the Results stream refused (JSON only).
	RowsLost uint64 `json:"rows_lost"`

	// Scan-health fields (appended CSV columns; always in JSON).
	// HitRate1m is the windowed hit rate — unique successes over probes
	// sent within the trailing 60s (or since start, if younger). Unlike
	// the cumulative HitRate it reacts to conditions *now*: a congestion
	// collapse is visible within a window, not diluted by hours of
	// history. ControllerRatePPS and QuarantinedPrefixes mirror the
	// health controller's target rate and quarantine count (zero when
	// the subsystem is off).
	HitRate1m           float64 `json:"hit_rate_1m"`
	ControllerRatePPS   float64 `json:"controller_rate_pps"`
	QuarantinedPrefixes uint64  `json:"quarantined_prefixes"`
	QuarantineSkips     uint64  `json:"quarantine_skips"`
	ParoleProbes        uint64  `json:"parole_probes"`

	// Enriched fields (JSON only). HitRate is the cumulative per-target
	// hit rate: unique × probes per target / sent.
	HitRate        float64   `json:"hit_rate"`
	ThreadPPS      []float64 `json:"thread_pps,omitempty"`
	SendLatencyP50 float64   `json:"send_latency_p50_secs"`
	SendLatencyP90 float64   `json:"send_latency_p90_secs"`
	SendLatencyP99 float64   `json:"send_latency_p99_secs"`
	// Receive-path latency (frame receipt to parse+validate), merged
	// across all receive-worker histogram shards. JSON-only, like the
	// send quantiles: csvColumns is pinned for parser compatibility.
	RecvLatencyP50 float64 `json:"recv_latency_p50_secs"`
	RecvLatencyP90 float64 `json:"recv_latency_p90_secs"`
	RecvLatencyP99 float64 `json:"recv_latency_p99_secs"`
}

// csvColumns pins the CSV column order. Appending a column is fine;
// reordering or renaming breaks every parser of --status-updates-file,
// so TestStatusCSVHeaderPinned fails if this list silently changes.
var csvColumns = []string{
	"time_unix", "sent", "sent_pps", "recv", "recv_pps",
	"success", "unique", "duplicates", "drops",
	"send_errors", "retries", "send_drops", "sender_restarts",
	"degraded_secs",
	"recv_truncated", "recv_unsupported", "recv_checksum_fail", "recv_invalid",
	"hit_rate_1m", "controller_rate_pps", "quarantined_prefixes",
	"parole_probes",
}

// CSVHeader returns the status CSV header line (without newline).
func CSVHeader() string { return strings.Join(csvColumns, ",") }

// StatusOptions configures a StatusWriter.
type StatusOptions struct {
	// Interval between ticks (default 1s).
	Interval time.Duration
	// Format is "csv" (default) or "json" (one object per line).
	Format string
	// Header emits the CSV header line before the first row (ZMap's
	// --status-updates-file carries one). Ignored for JSON.
	Header bool
	// ProbesPerTarget scales both hit rates to per-target figures, so a
	// k-probes-per-target scan reports the same rate as a one-probe scan
	// of the same hosts (0 means 1).
	ProbesPerTarget int
	// Fill is called once per tick, on the status goroutine, with a
	// Status carrying only the time and the measured interval since the
	// previous tick. It loads every count the line reports; the writer
	// then derives the rates from Sent, Recv and Unique.
	Fill func(st *Status, dt time.Duration)
}

// hitRateWindow is the trailing span over which hit_rate_1m is
// computed. maxWindowEntries bounds the tick ring at sub-second
// intervals (the window then shortens rather than growing without
// bound).
const (
	hitRateWindow    = time.Minute
	maxWindowEntries = 1024
)

// tick is what the writer keeps of one status line: the values its
// rate and hit_rate_1m math need from a previous tick.
type tick struct {
	at                 time.Time
	sent, recv, unique uint64
}

// StatusWriter periodically emits one status line per tick.
type StatusWriter struct {
	w        io.Writer
	opts     StatusOptions
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	last     tick
	window   []tick // trailing ticks for hit_rate_1m, oldest first
	headed   bool
}

// NewStatusWriter starts a status loop writing to w. Call Stop to end
// it. A nil w disables output but still permits Stop.
func NewStatusWriter(w io.Writer, opts StatusOptions) *StatusWriter {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Format == "" {
		opts.Format = "csv"
	}
	if opts.ProbesPerTarget < 1 {
		opts.ProbesPerTarget = 1
	}
	first := tick{at: time.Now()}
	s := &StatusWriter{
		w:      w,
		opts:   opts,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		last:   first,
		window: []tick{first},
	}
	go s.loop()
	return s
}

// windowedHitRate computes unique/sent over the trailing window ending
// at now, using the oldest retained tick inside the window as the
// anchor. It also prunes the ring. Zero when nothing was sent in the
// window (e.g. during cooldown).
func (s *StatusWriter) windowedHitRate(now tick) float64 {
	cutoff := now.at.Add(-hitRateWindow)
	i := 0
	for i < len(s.window)-1 && s.window[i].at.Before(cutoff) {
		i++
	}
	s.window = append(s.window[i:], now)
	if len(s.window) > maxWindowEntries {
		s.window = s.window[len(s.window)-maxWindowEntries:]
	}
	anchor := s.window[0]
	if now.sent <= anchor.sent {
		return 0
	}
	return float64(now.unique-anchor.unique) / float64(now.sent-anchor.sent)
}

func (s *StatusWriter) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.emit()
		case <-s.stop:
			s.emit()
			return
		}
	}
}

func (s *StatusWriter) emit() {
	at := time.Now()
	dt := at.Sub(s.last.at)
	if dt <= 0 {
		dt = s.opts.Interval
	}
	st := Status{TimeUnix: at.Unix()}
	if s.opts.Fill != nil {
		s.opts.Fill(&st, dt)
	}
	now := tick{at: at, sent: st.Sent, recv: st.Recv, unique: st.Unique}
	secs := dt.Seconds()
	ppt := float64(s.opts.ProbesPerTarget)
	st.SentPPS = float64(now.sent-s.last.sent) / secs
	st.RecvPPS = float64(now.recv-s.last.recv) / secs
	if now.sent > 0 {
		st.HitRate = float64(now.unique) * ppt / float64(now.sent)
	}
	st.HitRate1m = s.windowedHitRate(now) * ppt
	s.last = now
	if s.w == nil {
		return
	}
	switch s.opts.Format {
	case "json":
		_ = json.NewEncoder(s.w).Encode(&st)
	default:
		if s.opts.Header && !s.headed {
			s.headed = true
			fmt.Fprintln(s.w, CSVHeader())
		}
		fmt.Fprintf(s.w, "%d,%d,%.0f,%d,%.0f,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%d,%d,%d,%d,%.6f,%.0f,%d,%d\n",
			st.TimeUnix,
			st.Sent, st.SentPPS,
			st.Recv, st.RecvPPS,
			st.Success, st.Unique, st.Duplicates, st.Drops,
			st.SendErrors, st.Retries, st.SendDrops, st.SenderRestarts,
			st.DegradedSecs,
			st.RecvTruncated, st.RecvUnsupported, st.RecvChecksum, st.RecvInvalid,
			st.HitRate1m, st.ControllerRatePPS, st.QuarantinedPrefixes,
			st.ParoleProbes)
	}
}

// Stop ends the loop after a final line. It is idempotent: concurrent
// and repeated calls all block until the final line is written, then
// return.
func (s *StatusWriter) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}
