// The scan's one book of counts. Every number the engine reports is kept
// once, in the counts struct below, and incremented there by the hot
// paths; /metrics, the status stream, the metadata document, the
// checkpoint's packets_sent and the CLI summary are views that read it
// and nothing else. The table beside it names each count once, so the
// registry loop, the docs and the conservation-law tests all walk the
// same list (see DESIGN.md "Observability" for the identities).

package core

import (
	"sync/atomic"
	"time"

	"zmapgo/internal/metrics"
	"zmapgo/internal/monitor"
	"zmapgo/internal/output"
	"zmapgo/internal/target"
	"zmapgo/internal/trace"
	"zmapgo/internal/validate"
)

// counts is the book. It is a value inside Scanner: a scan allocates
// nothing per count, and an increment is one atomic add on a field.
type counts struct {
	// Send side. Every target a sender takes ends up skipped
	// (quarantined prefix) or as ProbesPerTarget frames that are each
	// sent or dropped. Sender threads book targets, like sent and
	// computes, once per batch rather than per probe: at resolve, so
	// mid-scan it lags by at most one batch per thread and is exact once
	// Run returns. Under a MaxTargets cap, targets is also the
	// budget every thread draws from: taken per target at fill time and
	// given back for elements a batch did not resolve.
	targets         atomic.Uint64
	quarantineSkips atomic.Uint64
	paroleProbes    atomic.Uint64 // of the targets probed, those riding a parole budget
	sent            atomic.Uint64
	sendDrops       atomic.Uint64 // frames abandoned after the retry budget; never in sent
	sendErrors      atomic.Uint64 // failed transport attempts, transient or fatal
	retries         atomic.Uint64
	senderRestarts  atomic.Uint64
	degradedNanos   atomic.Uint64 // wall time senders spent below their configured share

	// Receive side. Every frame lands in exactly one of truncated,
	// unsupported, checksum, invalid and valid; every valid response is
	// offered to the Results stream as one row.
	recv            atomic.Uint64
	recvTruncated   atomic.Uint64
	recvUnsupported atomic.Uint64
	recvChecksum    atomic.Uint64
	recvInvalid     atomic.Uint64
	valid           atomic.Uint64
	success         atomic.Uint64
	uniqueSucc      atomic.Uint64
	duplicates      atomic.Uint64 // valid responses the dedup window had seen

	// Results stream: rows its writer says the stream accepted (copied
	// from the writer after every drain, under resultsMu, because the
	// writer is not safe to read from a scrape) and rows it refused.
	written  atomic.Uint64
	rowsLost atomic.Uint64

	checkpoints atomic.Uint64 // snapshots persisted

	// Validation words: the send path books len(frames) per batch (its
	// renderer's validator counts nothing), the receive path's validator
	// adds one per word Classify computes.
	computes atomic.Uint64
}

// Count is one line of the book's table: the /metrics series a count is
// registered under, and the keys under which the metadata document and
// the JSON status line repeat it ("" where a view does not carry it).
type Count struct {
	Metric, Help string
	Meta, Status string
	HealthOnly   bool // registered only when the scan-health subsystem runs

	v *atomic.Uint64
}

// Counts lists the book's table, for the docs and tests that must cover
// every count without naming them.
func Counts() []Count { return new(counts).table() }

func (c *counts) table() []Count {
	return []Count{
		{"zmapgo_targets_total", "Targets taken by sender threads: probed, or skipped as quarantined.", "targets_scanned", "", false, &c.targets},
		{"zmapgo_quarantine_skipped_total", "Probes skipped because their target prefix was quarantined.", "quarantine_skipped_probes", "quarantine_skips", true, &c.quarantineSkips},
		{"zmapgo_parole_probes_total", "Probes sent into quarantined prefixes on the parole budget.", "parole_probes", "parole_probes", true, &c.paroleProbes},
		{"zmapgo_sent_total", "Probes sent on the wire.", "packets_sent", "sent", false, &c.sent},
		{"zmapgo_send_drops_total", "Probes abandoned after exhausting the retry budget.", "send_drops", "send_drops", false, &c.sendDrops},
		{"zmapgo_send_errors_total", "Failed transport send attempts.", "send_errors", "send_errors", false, &c.sendErrors},
		{"zmapgo_send_retries_total", "Send re-attempts after transient transport errors.", "retries", "retries", false, &c.retries},
		{"zmapgo_sender_restarts_total", "Supervised sender-thread restarts.", "sender_restarts", "sender_restarts", false, &c.senderRestarts},
		{"zmapgo_recv_total", "Frames received, pre-validation.", "packets_received", "recv", false, &c.recv},
		{"zmapgo_recv_truncated_total", "Frames rejected by the parser as truncated.", "recv_truncated", "recv_truncated", false, &c.recvTruncated},
		{"zmapgo_recv_unsupported_total", "Frames rejected by the parser as unsupported.", "recv_unsupported", "recv_unsupported", false, &c.recvUnsupported},
		{"zmapgo_recv_checksum_fail_total", "Frames that parsed but failed IP/transport checksum verification.", "recv_checksum_fail", "recv_checksum_fail", false, &c.recvChecksum},
		{"zmapgo_recv_invalid_total", "Well-formed frames rejected by stateless validation/classification.", "recv_invalid", "recv_invalid", false, &c.recvInvalid},
		{"zmapgo_valid_total", "Responses passing stateless validation.", "valid_responses", "", false, &c.valid},
		{"zmapgo_success_total", "Successful classifications.", "successes", "success", false, &c.success},
		{"zmapgo_unique_success_total", "First-sighting successes after dedup.", "unique_successes", "unique", false, &c.uniqueSucc},
		{"zmapgo_duplicate_total", "Deduplicated repeat responses.", "duplicate_responses", "duplicates", false, &c.duplicates},
		{"zmapgo_results_written_total", "Result rows the Results stream accepted.", "results_written", "", false, &c.written},
		{"zmapgo_results_rows_lost_total", "Result rows dropped because the Results stream refused them.", "rows_lost", "rows_lost", false, &c.rowsLost},
		{"zmapgo_checkpoints_written_total", "Checkpoint snapshots successfully persisted.", "", "", false, &c.checkpoints},
		{"zmapgo_validate_computes_total", "Validation words (one AES-128 block each) computed: one per probe built, one per response classified.", "", "", false, &c.computes},
	}
}

// computeCounter lets the validator add to a field of the book.
type computeCounter atomic.Uint64

func (c *computeCounter) Add(n uint64) { (*atomic.Uint64)(c).Add(n) }

// initMetrics binds the scan's series to its registry: the book's table,
// the three series derived from it, the four latency histograms the scan
// owns, and read-only views over the health controller and transport
// stats. Everything is bound, never get-or-created, so on a registry an
// earlier scan used every zmapgo_* series now describes this scan.
func (s *Scanner) initMetrics(validator *validate.Validator) {
	reg := s.cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s.registry = reg
	threads := s.cfg.Threads

	c := &s.counts
	for _, d := range c.table() {
		if !d.HealthOnly || s.health != nil {
			reg.CounterVar(d.Metric, d.Help, d.v)
		}
	}
	validator.Instrument((*computeCounter)(&c.computes))
	// The dedup outcomes restate two counts: a hit is a duplicate, a miss
	// is any other valid response (none of either with dedup off).
	reg.CounterVar("zmapgo_dedup_hits_total",
		"Validated responses identified as duplicates by the dedup window.", &c.duplicates)
	dedupOn := s.cfg.DedupWindow >= 0
	reg.CounterFunc("zmapgo_dedup_misses_total",
		"Validated responses seen for the first time.", func() uint64 {
			if !dedupOn {
				return 0
			}
			// duplicates first: it trails valid, so the difference
			// cannot go negative under concurrent receives.
			d := c.duplicates.Load()
			return c.valid.Load() - d
		})
	reg.GaugeFunc("zmapgo_degraded_seconds",
		"Wall time senders spent below their configured rate share.",
		func() float64 { return time.Duration(c.degradedNanos.Load()).Seconds() })

	s.sendLat = reg.NewHistogram("zmapgo_send_latency_seconds",
		"Transport send latency per attempt.", threads)
	s.backoffLat = reg.NewHistogram("zmapgo_send_backoff_seconds",
		"Backoff delay before re-sending after a transient transport error.", threads)
	s.recvLat = reg.NewHistogram("zmapgo_recv_validate_seconds",
		"Latency from frame receipt to parse+validate completion.", s.cfg.RecvWorkers)
	s.rlWait = reg.NewHistogram("zmapgo_ratelimit_wait_seconds",
		"Time sender threads spent blocked in the rate limiter.", threads)

	if h := s.health; h != nil {
		reg.GaugeFunc("zmapgo_health_rate_pps",
			"Current global target rate set by the scan-health controller.",
			func() float64 { return h.Rate() })
		reg.GaugeFunc("zmapgo_health_quarantined_prefixes",
			"Number of /16 prefixes quarantined as interfered.",
			func() float64 { return float64(h.QuarantineCount()) })
		reg.CounterFunc("zmapgo_health_rate_decreases_total",
			"Multiplicative rate decreases taken on congestion signals.", h.Decreases)
		reg.CounterFunc("zmapgo_health_rate_increases_total",
			"Additive rate recovery steps taken on healthy windows.", h.Increases)
		reg.CounterFunc("zmapgo_health_unreach_total",
			"Validated ICMP destination-unreachable messages attributed to our probes.", h.Unreach)
		reg.CounterFunc("zmapgo_parole_grants_total",
			"Parole re-probe windows opened for quarantined prefixes.", h.ParoleGrants)
		reg.CounterFunc("zmapgo_parole_releases_total",
			"Quarantined prefixes released after answering parole probes.", h.ParoleReleases)
	}

	t := s.transport
	reg.GaugeFunc("zmapgo_recv_ring_drops",
		"Frames dropped at the transport receive ring (kernel-drop analogue).",
		func() float64 { _, _, d := t.Stats(); return float64(d) })
	reg.GaugeFunc("zmapgo_link_sent_total",
		"Frames the transport accepted onto the wire.",
		func() float64 { n, _, _ := t.Stats(); return float64(n) })
	reg.GaugeFunc("zmapgo_link_delivered_total",
		"Frames the transport delivered to the receiver.",
		func() float64 { _, n, _ := t.Stats(); return float64(n) })
}

// hitRate is the per-target hit rate every view reports: k probes per
// target count once.
func (s *Scanner) hitRate(unique, sent uint64) float64 {
	if sent == 0 {
		return 0
	}
	return float64(unique) * float64(s.cfg.ProbesPerTarget) / float64(sent)
}

// statusFill builds the status stream's per-tick callback: it loads the
// line's counts from the book and adds what only the engine knows — the
// receive-ring drop gauge, the controller's state, per-thread send rates
// (from the progress counters) and the latency quantiles. It runs on the
// status goroutine; the closure state (previous progress values) is
// confined to it.
func (s *Scanner) statusFill() func(st *monitor.Status, dt time.Duration) {
	c := &s.counts
	lastProgress := make([]uint64, len(s.progress))
	return func(st *monitor.Status, dt time.Duration) {
		st.Sent = c.sent.Load()
		st.Recv = c.recv.Load()
		st.Success = c.success.Load()
		st.Unique = c.uniqueSucc.Load()
		st.Duplicates = c.duplicates.Load()
		_, _, st.Drops = s.transport.Stats()
		st.SendErrors = c.sendErrors.Load()
		st.Retries = c.retries.Load()
		st.SendDrops = c.sendDrops.Load()
		st.SenderRestarts = c.senderRestarts.Load()
		st.DegradedSecs = time.Duration(c.degradedNanos.Load()).Seconds()
		st.RecvTruncated = c.recvTruncated.Load()
		st.RecvUnsupported = c.recvUnsupported.Load()
		st.RecvChecksum = c.recvChecksum.Load()
		st.RecvInvalid = c.recvInvalid.Load()
		st.RowsLost = c.rowsLost.Load()
		st.QuarantineSkips = c.quarantineSkips.Load()
		st.ParoleProbes = c.paroleProbes.Load()
		if s.health != nil {
			st.ControllerRatePPS = s.health.Rate()
			st.QuarantinedPrefixes = s.health.QuarantineCount()
		}
		secs := dt.Seconds()
		pps := make([]float64, len(s.progress))
		for i := range s.progress {
			cur := s.progress[i].Load()
			if secs > 0 {
				pps[i] = float64(cur-lastProgress[i]) * float64(s.cfg.ProbesPerTarget) / secs
			}
			lastProgress[i] = cur
		}
		st.ThreadPPS = pps
		snap := s.sendLat.Snapshot()
		st.SendLatencyP50 = snap.Quantile(0.50).Seconds()
		st.SendLatencyP90 = snap.Quantile(0.90).Seconds()
		st.SendLatencyP99 = snap.Quantile(0.99).Seconds()
		// Receive-side quantiles merge every worker's histogram shard,
		// so the stream reports one distribution however many workers
		// are configured.
		rsnap := s.recvLat.Snapshot()
		st.RecvLatencyP50 = rsnap.Quantile(0.50).Seconds()
		st.RecvLatencyP90 = rsnap.Quantile(0.90).Seconds()
		st.RecvLatencyP99 = rsnap.Quantile(0.99).Seconds()
		// One journal heartbeat per status tick puts the scan's coarse
		// trajectory on the same timeline as the controller decisions.
		s.trace.Journal(trace.JEntry{Kind: trace.JStatus,
			RatePPS:    st.ControllerRatePPS,
			WindowSent: st.Sent, WindowRecv: st.Recv,
			HitRate: s.hitRate(st.Unique, st.Sent)})
	}
}

// buildMetadata assembles the end-of-scan document. Run calls it after
// every sender, receive worker and the merge writer have returned, so
// the counts it reads are final.
func (s *Scanner) buildMetadata() *output.Metadata {
	cfg := &s.cfg
	c := &s.counts
	_, _, dropped := s.transport.Stats()
	end := time.Now()
	dur := end.Sub(s.start).Seconds()
	sent, unique := c.sent.Load(), c.uniqueSucc.Load()
	meta := &output.Metadata{
		Tool:           "zmapgo",
		Version:        Version,
		ProbeModule:    s.module.Name(),
		Seed:           cfg.Seed,
		Shards:         cfg.Shards,
		ShardIndex:     cfg.ShardIndex,
		SenderThreads:  cfg.Threads,
		RatePPS:        cfg.Rate,
		Ports:          cfg.Ports.String(),
		OptionLayout:   cfg.OptionLayout.String(),
		RandomIPID:     cfg.RandomIPID,
		MaxTargets:     cfg.MaxTargets,
		Probes:         cfg.ProbesPerTarget,
		CooldownSecs:   cfg.Cooldown.Seconds(),
		Allowlisted:    cfg.Constraint.Count(),
		Blocklisted:    excludedCount(cfg.Constraint),
		Group:          s.space.Group().P,
		Generator:      s.cycle.Generator,
		StartTime:      s.start,
		EndTime:        end,
		Duration:       dur,
		TargetsScanned: c.targets.Load(),
		PacketsSent:    sent,
		PacketsRecv:    c.recv.Load(),
		ValidResponses: c.valid.Load(),
		Successes:      c.success.Load(),
		UniqueSucc:     unique,
		Duplicates:     c.duplicates.Load(),
		RecvDrops:      dropped,
		HitRate:        s.hitRate(unique, sent),
		SendRatePPS:    float64(sent) / dur,
		ThreadProgress: s.Progress(),
		SendErrors:     c.sendErrors.Load(),
		SendRetries:    c.retries.Load(),
		SendDrops:      c.sendDrops.Load(),
		SenderRestarts: c.senderRestarts.Load(),
		DegradedSecs:   time.Duration(c.degradedNanos.Load()).Seconds(),
		Phases:         append([]output.PhaseTiming(nil), s.phases...),

		RecvTruncated:    c.recvTruncated.Load(),
		RecvUnsupported:  c.recvUnsupported.Load(),
		RecvChecksumFail: c.recvChecksum.Load(),
		RecvInvalid:      c.recvInvalid.Load(),

		ResultsWritten: c.written.Load(),
		RowsLost:       c.rowsLost.Load(),

		Runs:           s.runs,
		FirstStartTime: s.firstStart,
		CumulativeSecs: s.prevSecs + dur,
		Interrupted:    s.stopRequested.Load(),
		CheckpointFile: cfg.CheckpointPath,

		CooldownMaxSecs:    cfg.CooldownMax.Seconds(),
		CooldownActualSecs: s.cooldownActual.Seconds(),
	}
	if s.health != nil {
		hs := s.health.Snapshot()
		meta.AdaptiveRate = s.health.Adaptive()
		if meta.AdaptiveRate {
			meta.MinRatePPS = s.health.MinRate()
			meta.FinalRatePPS = hs.RatePPS
		}
		meta.RateDecreases = hs.Decreases
		meta.RateIncreases = hs.Increases
		meta.UnreachObserved = hs.Unreach
		meta.QuarantineSkipped = c.quarantineSkips.Load()
		meta.ParoleProbes = c.paroleProbes.Load()
		meta.ParoleGrants = s.health.ParoleGrants()
		meta.ParoleReleases = s.health.ParoleReleases()
		for _, q := range hs.Quarantined {
			meta.QuarantinedPrefixes = append(meta.QuarantinedPrefixes, output.QuarantinedPrefix{
				Prefix: q.Prefix, Sent: q.Sent, Recv: q.Recv, AtSecs: q.AtSecs,
				ParoleAttempts: q.ParoleAttempts,
				ParoleSent:     q.ParoleSent,
				ParoleRecv:     q.ParoleRecv,
				Released:       q.Released,
				ReleasedAtSecs: q.ReleasedAtSecs,
			})
		}
	}
	return meta
}

func excludedCount(c *target.Constraint) uint64 {
	n, _ := c.Excluded()
	return n
}
