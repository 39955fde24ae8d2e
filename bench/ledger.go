package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/cyclic"
	"zmapgo/internal/dedup"
	"zmapgo/internal/metrics"
	"zmapgo/internal/netsim"
	"zmapgo/internal/output"
	"zmapgo/internal/packet"
	"zmapgo/internal/probe"
	"zmapgo/internal/ratelimit"
	"zmapgo/internal/shard"
	"zmapgo/internal/target"
	"zmapgo/internal/trace"
	"zmapgo/internal/validate"
	"zmapgo/zmap"
)

// The layer ledger times calls into each layer's public functions from
// outside, one goroutine, fed with the workload's own inputs: the seed's
// target stream through the workload's constraint, frames from the
// renderer, replies from the reflector. Each row is the median of
// ledgerRepeats timings of ledgerCalls calls.
const (
	ledgerCalls   = 1 << 18
	ledgerRepeats = 5
	sendBatchSize = 64 // the scanner's default batch, which sizes WaitN calls and the frame ring
)

// sink keeps the compiler from discarding a timed call's result.
var sink uint64

// timeRow runs body, which makes ledgerCalls calls, ledgerRepeats times
// and returns the median nanoseconds and allocations per call.
func timeRow(body func()) (ns, allocs float64) {
	var times, mallocs []float64
	var before, after runtime.MemStats
	for r := 0; r < ledgerRepeats; r++ {
		runtime.ReadMemStats(&before)
		t0 := now()
		body()
		t1 := now()
		runtime.ReadMemStats(&after)
		times = append(times, float64(t1-t0)/ledgerCalls)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs)/ledgerCalls)
	}
	return median(times), median(mallocs)
}

// timeOnce is for rows too slow to call 2^18 times: the median of
// ledgerRepeats single calls, in milliseconds.
func timeOnce(body func() error) (float64, error) {
	var ms []float64
	for r := 0; r < ledgerRepeats; r++ {
		t0 := now()
		if err := body(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(now()-t0)/1e6)
	}
	return median(ms), nil
}

type flow struct {
	ip   uint32
	port uint16
}

// ledger carries the inputs from one group of rows to the next.
type ledger struct {
	sh shape
	m  map[string]float64

	rng   *rand.Rand
	ports *target.PortSet
	flows []flow // ledgerCalls targets in the seed's permutation order

	key      [validate.KeySize]byte
	ctx      *probe.Context
	mod      probe.Module
	renderer *probe.Renderer
	ring     [][]byte // the send loop's frame ring
	probes   [][]byte // one rendered probe per flow
	valid    []packet.Frame
}

// runLedger measures every ledger row on the workload's full-size shape.
func runLedger(sh shape) (map[string]float64, error) {
	l := &ledger{sh: sh, m: make(map[string]float64), rng: rand.New(rand.NewSource(scanSeed(sh.seed)))}
	for _, rows := range []func() error{
		l.targetRows, l.limiterRows, l.renderRows, l.replyRows, l.computeCounts,
		l.dedupRows, l.outputRows, l.netsimRows, l.recorderRows, l.checkpointRows,
	} {
		if err := rows(); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

// targetRows walks the target stream as the send loop does: constraint,
// group, permutation, decode, address lookup.
func (l *ledger) targetRows() (err error) {
	if l.ports, err = target.ParsePorts(l.sh.ports); err != nil {
		return err
	}
	var cons *target.Constraint
	blocked := l.sh.blocklist()
	l.m["target.finalize_ms"], _ = timeOnce(func() error {
		cons = target.NewConstraint(false)
		cons.Allow(l.sh.base, l.sh.bits)
		for _, p := range blocked {
			cons.Deny(p.addr, p.bits)
		}
		cons.Finalize()
		sink += cons.Count()
		return nil
	})
	var space *cyclic.Space
	var cycle cyclic.Cycle
	l.m["cyclic.setup_ms"], err = timeOnce(func() (err error) {
		space, err = cyclic.NewSpace(cons.Count(), uint64(l.ports.Len()))
		if err == nil {
			cycle = cyclic.NewCycle(space.Group(), l.rng)
		}
		return err
	})
	if err != nil {
		return err
	}
	order := space.Group().Order()
	l.m["cyclic.useful_ratio"] = float64(space.Targets()) / float64(order)

	it := shard.Plan(shard.Pizza, order, 1, 1, 0, 0).Iterator(cycle)
	elems := make([]uint64, ledgerCalls)
	l.m["cyclic.next_ns"], _ = timeRow(func() {
		for i := range elems {
			elems[i], _ = it.Next()
		}
	})
	l.m["cyclic.decode_ns"], _ = timeRow(func() {
		for _, e := range elems {
			ipIdx, portIdx, _ := space.Decode(e)
			sink += ipIdx + portIdx
		}
	})
	ipIdx := make([]uint64, 0, ledgerCalls)
	l.flows = make([]flow, 0, ledgerCalls)
	for len(l.flows) < ledgerCalls {
		e, ok := it.Next()
		if !ok {
			return fmt.Errorf("%s: fewer than %d targets", l.sh.name, ledgerCalls)
		}
		if i, p, ok := space.Decode(e); ok {
			ipIdx = append(ipIdx, i)
			l.flows = append(l.flows, flow{port: l.ports.At(int(p))})
		}
	}
	l.m["target.at_ns"], _ = timeRow(func() {
		for i, idx := range ipIdx {
			l.flows[i].ip = cons.At(idx)
		}
	})
	return nil
}

// limiterRows prices the limiter as the send loop calls it: the
// unlimited fast path per token, and the wait path at one thread's share
// of paced_sim's rate on the real clock.
func (l *ledger) limiterRows() error {
	limiter := ratelimit.New(0, nil)
	ns, _ := timeRow(func() {
		for i := 0; i < ledgerCalls; i++ {
			sink += uint64(limiter.WaitN(sendBatchSize))
		}
	})
	l.m["ratelimit.waitn_ns"] = ns / sendBatchSize

	var cpu, off []float64
	for r := 0; r < ledgerRepeats; r++ {
		const rate, span = 125000, 300 * time.Millisecond
		paced := ratelimit.New(rate, nil)
		cpu0, err := cpuNs()
		if err != nil {
			return err
		}
		granted, t0 := 0, now()
		for now()-t0 < int64(span) {
			granted += paced.WaitN(sendBatchSize)
		}
		elapsed := now() - t0
		cpu1, err := cpuNs()
		if err != nil {
			return err
		}
		cpu = append(cpu, float64(cpu1-cpu0)/float64(granted))
		rel := float64(granted)/(float64(elapsed)/1e9)/rate - 1
		off = append(off, max(rel, -rel)*100)
	}
	l.m["ratelimit.paced_cpu_ns"], l.m["ratelimit.paced_err_pct"] = median(cpu), median(off)
	return nil
}

// probeContext mirrors what zmap.Options.Compile hands the probe module
// for a default tcp_synscan.
func probeContext(v *validate.Validator) *probe.Context {
	return &probe.Context{
		SrcIP:           0xC0000201,
		SrcMAC:          packet.MAC{0x02, 0x5A, 0x47, 0x4F, 0x00, 0x01},
		GwMAC:           packet.MAC{0x02, 0x5A, 0x47, 0x4F, 0x00, 0xFE},
		Validator:       v,
		SourcePortBase:  32768,
		SourcePortCount: 256,
		Options:         packet.LayoutMSS,
		RandomIPID:      true,
		TTL:             packet.DefaultProbeTTL,
	}
}

// renderRows prices the validation word and the template renderer, then
// keeps one rendered probe per flow for the rows downstream.
func (l *ledger) renderRows() (err error) {
	l.rng.Read(l.key[:])
	val := validate.New(l.key)
	l.ctx = probeContext(val)
	l.m["validate.compute_ns"], _ = timeRow(func() {
		for _, f := range l.flows {
			sink += val.Compute(l.ctx.SrcIP, f.ip, f.port)
		}
	})
	if l.mod, err = probe.Lookup("tcp_synscan"); err != nil {
		return err
	}
	if l.renderer, err = l.mod.(probe.Templater).MakeTemplate(l.ctx); err != nil {
		return err
	}
	size := l.renderer.Len()
	backing := make([]byte, (sendBatchSize+ledgerCalls)*size)
	frame := func(i int) []byte {
		f := backing[i*size : (i+1)*size]
		l.renderer.Seed(f)
		return f
	}
	l.ring = make([][]byte, sendBatchSize)
	for i := range l.ring {
		l.ring[i] = frame(i)
	}
	l.m["probe.render_ns"], l.m["probe.render_allocs"] = timeRow(func() {
		for i, f := range l.flows {
			l.renderer.Render(l.ring[i%sendBatchSize], f.ip, f.port)
		}
	})
	l.probes = make([][]byte, ledgerCalls)
	for i, f := range l.flows {
		l.probes[i] = frame(sendBatchSize + i)
		l.renderer.Render(l.probes[i], f.ip, f.port)
	}
	return nil
}

// parsedReplies builds the reflector's reply of one class to every probe
// and deep-copies what ParseVerified returns, so Classify can be timed
// alone on frames that outlive the scratch.
func (l *ledger) parsedReplies(class replyClass) (raw [][]byte, parsed []packet.Frame, err error) {
	var scratch packet.FrameScratch
	raw = make([][]byte, ledgerCalls)
	parsed = make([]packet.Frame, ledgerCalls)
	tcps := make([]packet.TCP, ledgerCalls)
	for i, p := range l.probes {
		raw[i] = appendReply(make([]byte, 0, replyCap), p, class)
		f, err := scratch.ParseVerified(raw[i])
		if err != nil {
			return nil, nil, fmt.Errorf("reflector reply does not parse: %w", err)
		}
		parsed[i], tcps[i] = *f, *f.TCP
		parsed[i].TCP = &tcps[i]
	}
	return raw, parsed, nil
}

// replyRows prices the reflector itself, then parse and classify on its
// replies.
func (l *ledger) replyRows() error {
	// The reflector's own cost per reply: build, ring and buffer pool,
	// with one goroutine playing sender and receiver in turn.
	refl := newReflector(subSeed(l.sh.seed, streamReflect), nil)
	drained := make([][]byte, 2*sendBatchSize)
	ns, _ := timeRow(func() {
		for i := 0; i < ledgerCalls; i += sendBatchSize {
			_, _ = refl.SendBatch(l.probes[i : i+sendBatchSize]) // cannot fail
			for _, f := range drained[:refl.RecvBatch(drained)] {
				refl.Release(f)
			}
		}
	})
	l.m["bench.reflect_ns"] = ns * ledgerCalls * ledgerRepeats / float64(refl.delivered())

	raw, valid, err := l.parsedReplies(synackOnce)
	if err != nil {
		return err
	}
	l.valid = valid
	var scratch packet.FrameScratch
	l.m["packet.parse_verified_ns"], l.m["packet.parse_verified_allocs"] = timeRow(func() {
		for _, r := range raw {
			f, _ := scratch.ParseVerified(r) // parsed once above already
			sink += uint64(f.IP.Src)
		}
	})
	accepted := 0
	classify := func(frames []packet.Frame) func() {
		return func() {
			for i := range frames {
				if _, ok := l.mod.Classify(l.ctx, &frames[i]); ok {
					accepted++
				}
			}
		}
	}
	l.m["probe.classify_ns"], l.m["probe.classify_allocs"] = timeRow(classify(valid))
	if accepted != ledgerCalls*ledgerRepeats {
		return fmt.Errorf("classify accepted %d of %d valid replies", accepted, ledgerCalls*ledgerRepeats)
	}
	_, forgedFrames, err := l.parsedReplies(forged)
	if err != nil {
		return err
	}
	accepted = 0
	l.m["probe.classify_reject_ns"], _ = timeRow(classify(forgedFrames))
	if accepted != 0 {
		return fmt.Errorf("classify accepted %d forged replies", accepted)
	}
	return nil
}

type computeCount struct{ n uint64 }

func (c *computeCount) Add(n uint64) { c.n += n }

// computeCounts counts validation words per render and per classify
// exactly, on a second validator so the counter is in no timed row.
func (l *ledger) computeCounts() error {
	var count computeCount
	counted := validate.New(l.key)
	counted.Instrument(&count)
	ctx := probeContext(counted)
	renderer, err := l.mod.(probe.Templater).MakeTemplate(ctx)
	if err != nil {
		return err
	}
	const calls = 1024
	count.n = 0 // building the template rendered a prototype probe
	for _, f := range l.flows[:calls] {
		renderer.Render(l.ring[0], f.ip, f.port)
	}
	l.m["validate.computes_per_render"] = float64(count.n) / calls
	count.n = 0
	for i := range l.valid[:calls] {
		l.mod.Classify(ctx, &l.valid[i])
	}
	l.m["validate.computes_per_classify"] = float64(count.n) / calls
	return nil
}

// dedupRows prices Seen on a full, sliding default window.
func (l *ledger) dedupRows() error {
	win := dedup.NewWindow(dedup.DefaultWindowSize)
	next := uint32(0)
	for ; next < dedup.DefaultWindowSize; next++ {
		win.Seen(next, 80)
	}
	l.m["dedup.seen_fresh_ns"], _ = timeRow(func() {
		for i := 0; i < ledgerCalls; i++ {
			if win.Seen(next, 80) {
				sink++
			}
			next++
		}
	})
	l.m["dedup.seen_repeat_ns"], _ = timeRow(func() {
		for i := uint32(1); i <= ledgerCalls; i++ {
			if win.Seen(next-i, 80) {
				sink++
			}
		}
	})
	l.m["dedup.window_mb"] = float64(win.MemoryBytes()) / 1e6
	return nil
}

// outputRows prices the writer stack Compile builds, into a counting
// discard: rows the default filter passes, and rows it rejects.
func (l *ledger) outputRows() error {
	filter, err := output.CompileFilter(output.DefaultFilterExpr)
	if err != nil {
		return err
	}
	written := make([]output.Record, ledgerCalls)
	rejected := make([]output.Record, ledgerCalls)
	for i, f := range l.flows {
		written[i] = output.NewRecord(f.ip, f.port, "synack", true, false, false, 64, time.Duration(i)*time.Microsecond)
		rejected[i] = written[i]
		rejected[i].Classification, rejected[i].Success = "rst", false
	}
	own := l.sh.format
	if own == "" {
		own = "csv"
	}
	for _, format := range []string{"csv", "jsonl"} {
		var out countingWriter
		w, err := output.NewWriter(format, &out, l.ports.Len() > 1)
		if err != nil {
			return err
		}
		fw := &output.Filtered{W: w, Filter: filter}
		write := func(records []output.Record) func() {
			return func() {
				for i := range records {
					if werr := fw.Write(records[i]); werr != nil {
						err = werr
					}
				}
			}
		}
		l.m["output.write_"+format+"_ns"], _ = timeRow(write(written))
		if format == "csv" {
			l.m["output.filter_reject_ns"], _ = timeRow(write(rejected))
		}
		if cerr := fw.Close(); cerr != nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if format == own {
			l.m["output.bytes_per_record"] = float64(out.bytes) / (ledgerCalls * ledgerRepeats)
		}
	}
	return nil
}

// netsimRows prices the simulator's responder on the rendered probes.
func (l *ledger) netsimRows() error {
	in := simInternet(l.sh.seed)
	responses := 0
	l.m["netsim.respond_ns"], l.m["netsim.respond_allocs"] = timeRow(func() {
		for _, p := range l.probes {
			for _, r := range in.Respond(p) {
				netsim.PutFrame(r.Frame)
				responses++
			}
		}
	})
	l.m["netsim.response_ratio"] = float64(responses) / (ledgerCalls * ledgerRepeats)
	return nil
}

// recorderRows prices the always-on flight recorder and a latency
// histogram.
func (l *ledger) recorderRows() error {
	tr := trace.New(trace.Config{Shards: 1})
	l.m["trace.key_ns"], _ = timeRow(func() {
		for _, f := range l.flows {
			sink += tr.Key(f.ip, f.port)
		}
	})
	tsh := tr.Shard(0)
	l.m["trace.record_ns"], _ = timeRow(func() {
		for _, f := range l.flows {
			tsh.Record(trace.KProbeGen, f.ip, f.port, 0)
		}
	})
	hist := metrics.NewHistogram(1).Shard(0)
	l.m["metrics.hist_record_ns"], _ = timeRow(func() {
		for i := 0; i < ledgerCalls; i++ {
			hist.Record(time.Duration(i))
		}
	})
	return nil
}

// checkpointRows prices one checkpoint write: a small reflector scan
// leaves a snapshot whose dedup window is all but full (15/16 of 2^20
// flows in a 10^6 window), which is loaded and saved again.
func (l *ledger) checkpointRows() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "scan.ckpt")
	opts := zmap.Options{
		Ranges:             []string{"10.0.0.0/12"},
		Ports:              "80",
		Seed:               scanSeed(l.sh.seed),
		Cooldown:           100 * time.Millisecond,
		CheckpointPath:     path,
		CheckpointInterval: time.Hour, // only the final snapshot is wanted
	}
	scanner, err := opts.Compile(newReflector(subSeed(l.sh.seed, streamReflect), nil))
	if err != nil {
		return err
	}
	if _, err := scanner.Run(context.Background()); err != nil {
		return err
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		return err
	}
	if l.m["checkpoint.save_ms"], err = timeOnce(func() error { return checkpoint.Save(path, snap) }); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.m["checkpoint.bytes"] = float64(info.Size())
	return nil
}
