package main

import (
	"fmt"
	"time"
)

// runResult is one workload measured with recording off: repeated
// full-size passes for the given time, and the set-up timing.
type runResult struct {
	Workload  string
	Targets   uint64          // per pass
	Passes    []passResult    // the counted ones
	Metrics   map[string]dist // the end-to-end metrics
	Attempted uint64
	Failed    uint64
	Why       []string // oracle violations, if any
}

// minPasses is the fewest passes a run counts, however short -seconds is.
const minPasses = 3

// warmup is how long a run repeats passes before it starts counting them.
// The box takes about that long to settle into a workload after whatever
// ran before: on paced_sim, CPU per target reads 1700 ns for ~5 s after
// the CPUs were saturated and 1250 ns from then on.
const warmup = 5 * time.Second

// measure repeats full-size passes of the workload, counts those begun
// after the warm-up, for the given time, and summarises the end-to-end
// metrics over them. Warm-up passes are still checked by the oracle.
func measure(w workload, seed int64, seconds int) (runResult, error) {
	sh := shape{workload: w, seed: seed}
	res := runResult{Workload: w.name, Metrics: make(map[string]dist)}
	want, err := sh.expect()
	if err != nil {
		return res, err
	}
	res.Targets = want.Targets

	samples := make(map[string][]float64)
	var total passResult
	countFrom := time.Now().Add(warmup)
	deadline := countFrom.Add(time.Duration(seconds) * time.Second)
	for {
		begun := time.Now()
		if len(res.Passes) >= minPasses && !begun.Before(deadline) {
			break
		}
		p, err := spawn(passSpec{Workload: w.name, Seed: seed, Via: w.via})
		if err != nil {
			return res, err
		}
		failed, why := check(sh, w.via, want, p)
		res.Attempted += want.Targets
		res.Failed += failed
		res.Why = append(res.Why, why...)
		if begun.Before(countFrom) {
			continue
		}
		res.Passes = append(res.Passes, p)
		total.Targets += p.Targets
		total.Frames += p.Frames
		total.SendWallNs += p.SendWallNs
		total.CPUNs += p.CPUNs
		total.Mallocs += p.Mallocs
		t := float64(p.Targets)
		samples["scan_pps"] = append(samples["scan_pps"], p.pps())
		samples["cpu_ns_per_target"] = append(samples["cpu_ns_per_target"], float64(p.CPUNs)/t)
		samples["allocs_per_target"] = append(samples["allocs_per_target"], float64(p.Mallocs)/t)
		samples["rss_peak_mb"] = append(samples["rss_peak_mb"], float64(p.MaxRSSKB)/1000)
	}
	pooled := map[string]float64{
		"scan_pps":          total.pps(),
		"cpu_ns_per_target": float64(total.CPUNs) / float64(total.Targets),
		"allocs_per_target": float64(total.Mallocs) / float64(total.Targets),
	}
	for name, xs := range samples {
		d := summarise(xs)
		if v, ok := pooled[name]; ok {
			d.Value = v
		}
		res.Metrics[name] = d
	}

	// Last, so that its collections do not disturb the passes.
	setup, err := spawn(passSpec{Workload: w.name, Seed: seed, Setup: true})
	if err != nil {
		return res, err
	}
	secs := make([]float64, len(setup.Setup))
	for i, ns := range setup.Setup {
		secs[i] = float64(ns) / 1e9
	}
	res.Metrics["setup_s"] = summarise(secs)
	return res, nil
}

// overheadPairs is how many recording-on/recording-off pairs of
// quarter-size passes a traced run makes.
const overheadPairs = 3

// traceResult is one workload's traced run: the layer ledger and what
// the boundary spans of quarter-size passes give.
type traceResult struct {
	Workload  string
	Metrics   map[string]float64 // every per-layer metric
	Ledgers   []ledgerSum
	Attempted uint64
	Failed    uint64
	Why       []string
}

// traced runs the separate traced run of one workload.
func traced(w workload, seed int64) (traceResult, error) {
	full := shape{workload: w, seed: seed}
	quarter := shape{workload: w, seed: seed, shift: 2}
	res := traceResult{Workload: w.name}
	m, err := runLedger(full)
	if err != nil {
		return res, err
	}
	res.Metrics = m
	want, err := quarter.expect()
	if err != nil {
		return res, err
	}

	var on, off []passResult
	pass := func(spec passSpec) (passResult, error) {
		spec.Workload, spec.Seed, spec.Shift = w.name, seed, quarter.shift
		p, err := spawn(spec)
		if err != nil {
			return p, err
		}
		failed, why := check(quarter, spec.Via, want, p)
		res.Attempted += want.Targets
		res.Failed += failed
		res.Why = append(res.Why, why...)
		return p, nil
	}
	for i := 0; i < overheadPairs; i++ {
		// Alternate which side goes first, so drift favours neither.
		for _, record := range []bool{i%2 == 0, i%2 != 0} {
			p, err := pass(passSpec{Via: w.via, Record: record})
			if err != nil {
				return res, err
			}
			if record {
				on = append(on, p)
			} else {
				off = append(off, p)
			}
		}
	}
	sendOnly := off[0]
	if w.via != viaNull {
		if sendOnly, err = pass(passSpec{Via: viaNull}); err != nil {
			return res, err
		}
	}

	med := func(ps []passResult, f func(*passResult) float64) float64 {
		xs := make([]float64, len(ps))
		for i := range ps {
			xs[i] = f(&ps[i])
		}
		return median(xs)
	}
	t := float64(want.Targets)
	// Each pair ran back to back, so it shares the machine's state: take
	// the overhead within pairs, then the median over them.
	overhead := make([]float64, overheadPairs)
	for i := range overhead {
		overhead[i] = (1 - on[i].pps()/off[i].pps()) * 100
	}
	m["trace_overhead_pct"] = median(overhead)
	m["transport.send_ns"] = med(on, func(p *passResult) float64 { return float64(p.SendBatchNs) / float64(p.Frames) })
	m["transport.batch_frames_p50"] = med(on, func(p *passResult) float64 { return p.BatchFrames50 })
	m["core.fill_ns"] = med(on, func(p *passResult) float64 {
		return (float64(w.threads)*float64(p.SendWallNs) - float64(p.SendHeldNs)) / float64(p.Frames)
	})
	m["core.recv_residence_us_p50"] = med(on, func(p *passResult) float64 { return p.Residence50 / 1e3 })
	m["core.recv_residence_us_p99"] = med(on, func(p *passResult) float64 { return p.Residence99 / 1e3 })
	m["output.lag_ms_p50"] = med(on, func(p *passResult) float64 { return p.Lag50 / 1e6 })
	m["output.lag_ms_p99"] = med(on, func(p *passResult) float64 { return p.Lag99 / 1e6 })
	m["core.first_probe_ms"] = med(off, func(p *passResult) float64 { return float64(p.FirstProbeNs) / 1e6 })
	m["core.teardown_ms"] = med(off, func(p *passResult) float64 { return float64(p.TeardownNs) / 1e6 })
	m["core.compile_alloc_mb"] = med(off, func(p *passResult) float64 { return float64(p.CompileAllocBytes) / 1e6 })
	last := off[len(off)-1]
	m["core.packets_sent"] = float64(last.PacketsSent)
	m["core.frames_received"] = float64(last.FramesReceived)
	m["core.valid_responses"] = float64(last.ValidResponses)
	m["core.unique_successes"] = float64(last.UniqueSuccesses)
	m["core.recv_invalid"] = float64(last.RecvInvalid)
	m["core.receive_drops"] = float64(last.ReceiveDrops)
	m["core.send_drops"] = float64(last.SendDrops)
	m["dedup.duplicates"] = float64(last.Duplicates)
	m["output.rows"] = float64(last.Rows)

	// The ledger's two sums against what the passes measured.
	send := sendLedger(m, last)
	m["core.send_unattributed_ns"] = m["core.fill_ns"] - send.sum()
	recv := recvLedger(m, w.format, last)
	m["core.recv_unattributed_ns"] = 0
	if last.FramesReceived > 0 {
		cpu := med(off, func(p *passResult) float64 { return float64(p.CPUNs) / t })
		sendCPU := float64(sendOnly.CPUNs) / t
		transportCPU := m["netsim.respond_ns"]
		if w.via == viaReflector {
			transportCPU = m["bench.reflect_ns"] * float64(last.FramesReceived) / t
		}
		perFrame := (cpu - sendCPU - transportCPU) / (float64(last.FramesReceived) / t)
		recv.Measured = perFrame
		m["core.recv_unattributed_ns"] = perFrame - recv.sum()
	}
	send.Measured = m["core.fill_ns"]
	res.Ledgers = []ledgerSum{send, recv}
	return res, nil
}

// ledgerSum is one side of the layer ledger: rows that should add up to
// a measured per-unit cost.
type ledgerSum struct {
	Title    string
	Unit     string
	Rows     []ledgerRow
	Measured float64
}

type ledgerRow struct {
	What string
	Ns   float64
}

func (l ledgerSum) sum() float64 {
	var s float64
	for _, r := range l.Rows {
		s += r.Ns
	}
	return s
}

// sendLedger is the send path per probe, as the send loop's fill phase
// runs it: everything between two SendBatch calls. The traced passes are
// a quarter of full size but walk a group of the same order, so the
// generator row uses their own useful ratio, not cyclic.useful_ratio.
func sendLedger(m map[string]float64, p passResult) ledgerSum {
	walked := float64(p.GroupOrder) / float64(p.Targets)
	return ledgerSum{Title: "send path", Unit: "ns per probe outside SendBatch (core.fill_ns)", Rows: []ledgerRow{
		{fmt.Sprintf("(cyclic.next_ns + cyclic.decode_ns) x %.1f elements walked per target", walked),
			(m["cyclic.next_ns"] + m["cyclic.decode_ns"]) * walked},
		{"target.at_ns", m["target.at_ns"]},
		{"probe.render_ns", m["probe.render_ns"]},
		{"ratelimit.waitn_ns", m["ratelimit.waitn_ns"]},
		{"trace.key_ns", m["trace.key_ns"]},
	}}
}

// recvLedger is the receive path per frame, weighted by what the pass
// actually received: valid and rejected frames, fresh and repeated flows,
// written and filtered rows.
func recvLedger(m map[string]float64, format string, p passResult) ledgerSum {
	l := ledgerSum{Title: "receive path", Unit: "CPU ns per received frame"}
	frames := float64(p.FramesReceived)
	if frames == 0 {
		return l
	}
	valid, invalid := float64(p.ValidResponses)/frames, float64(p.RecvInvalid)/frames
	repeat := float64(p.Duplicates) / frames
	rows := float64(p.Rows) / frames
	l.Rows = []ledgerRow{
		{"packet.parse_verified_ns", m["packet.parse_verified_ns"]},
		{"probe.classify_ns x valid share", m["probe.classify_ns"] * valid},
		{"probe.classify_reject_ns x invalid share", m["probe.classify_reject_ns"] * invalid},
		{"dedup.seen_fresh_ns x fresh share", m["dedup.seen_fresh_ns"] * (valid - repeat)},
		{"dedup.seen_repeat_ns x repeat share", m["dedup.seen_repeat_ns"] * repeat},
		{"output.write_ns x written share", m["output.write_"+format+"_ns"] * rows},
		{"output.filter_reject_ns x filtered share", m["output.filter_reject_ns"] * (valid - rows)},
	}
	return l
}
