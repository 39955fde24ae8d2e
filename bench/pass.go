package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// outDir is where traced passes leave their spans and paced_sim its
// checkpoint, relative to the directory the benchmark is run from.
const outDir = "bench/out"

// passSpec tells a child process what to run. A pass is one scan in one
// fresh process, so its CPU and peak RSS are that scan's alone and no
// workload inherits another's heap.
type passSpec struct {
	Workload string
	Seed     int64
	Shift    int           // 0 = full size, 2 = a quarter
	Via      transportKind // the workload's own, or viaNull to price its send side alone
	Record   bool          // traced pass: transports and writers record
	Setup    bool          // time Compile instead of running a scan
}

// passResult is what a child reports back, as one JSON line on stdout.
type passResult struct {
	Targets    uint64 // what the scanner says the scan covers
	GroupOrder uint64 // permutation elements walked to cover them
	Frames     uint64 // accepted by the transport
	SendWallNs int64
	CPUNs      int64 // user+sys across Run
	Mallocs    uint64
	MaxRSSKB   int64

	CompileAllocBytes uint64
	FirstProbeNs      int64   // Run call -> first SendBatch
	TeardownNs        int64   // last SendBatch -> Run return, less cooldown
	Setup             []int64 `json:"setup_ns,omitempty"`

	// From zmap.Summary.
	PacketsSent, FramesReceived, ValidResponses, UniqueSuccesses uint64
	RecvInvalid, ReceiveDrops, SendDrops, Duplicates             uint64
	// From the benchmark's own sinks and transports.
	Rows, StatusLines, MetadataBytes uint64
	Reflected                        [numClasses]uint64 // reflector's tallies
	Unprobed, Reprobed               uint64             // send_null bitmap, traced pass only

	// Traced pass only.
	SendBatchNs   int64 // inside SendBatch
	SendHeldNs    int64 // inside SendBatch or the recorder
	BatchFrames50 float64
	Residence50   float64
	Residence99   float64
	ResidenceN    int
	Lag50         float64
	Lag99         float64
	LagN          int
}

func (p *passResult) pps() float64 { return float64(p.Frames) / (float64(p.SendWallNs) / 1e9) }

func cpuNs() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

const (
	setupWarmups = 10
	setupSamples = 101
)

// childMain runs one pass in this process and prints its result.
func childMain(arg string) error {
	var spec passSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	sh := shape{workload: w, seed: spec.Seed, shift: spec.Shift}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "pass-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var res passResult
	if spec.Setup {
		res, err = timeSetup(sh, dir)
	} else {
		res, err = runPass(sh, spec, dir)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(&res)
}

// timeSetup times repeated Compile calls with the workload's options and
// fixed seed: what an operator waits for before the first probe. Each call
// follows a forced collection, so it starts from the empty heap a fresh
// process has instead of the previous call's garbage; without that, which
// calls a collection cycle lands in varies and the median moves by 15%
// from run to run.
func timeSetup(sh shape, dir string) (passResult, error) {
	var res passResult
	for i := 0; i < setupWarmups+setupSamples; i++ {
		sc := sh.build(nil, viaNull, dir)
		runtime.GC()
		t0 := now()
		if _, err := sc.opts.Compile(sc.transport); err != nil {
			return res, err
		}
		if i >= setupWarmups {
			res.Setup = append(res.Setup, now()-t0)
		}
	}
	return res, nil
}

func runPass(sh shape, spec passSpec, dir string) (passResult, error) {
	var res passResult
	var rec *recorder
	if spec.Record {
		rec = newRecorder()
		rec.add(0, "run", now(), 0, 0) // runSpanID; closed when Run returns
		if spec.Via == viaNull {
			rec.probed = make([]uint64, sh.scanned().size()/64)
			rec.probedBase = sh.base
		}
	}
	sc := sh.build(rec, spec.Via, dir)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := now()
	scanner, err := sc.opts.Compile(sc.transport)
	if err != nil {
		return res, err
	}
	compiled := now()
	runtime.ReadMemStats(&after)
	res.CompileAllocBytes = after.TotalAlloc - before.TotalAlloc
	res.Targets, res.GroupOrder = scanner.Targets(), scanner.GroupPrime()-1

	cpu0, err := cpuNs()
	if err != nil {
		return res, err
	}
	runtime.ReadMemStats(&before)
	start := now()
	sum, err := scanner.Run(context.Background())
	end := now()
	if err != nil {
		return res, err
	}
	runtime.ReadMemStats(&after)
	cpu1, err := cpuNs()
	if err != nil {
		return res, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return res, err
	}

	first, last := sc.send.first.Load(), sc.send.last.Load()
	res.Frames = sc.send.frames.Load()
	res.SendWallNs = last - first
	res.CPUNs = cpu1 - cpu0
	res.Mallocs = after.Mallocs - before.Mallocs
	res.MaxRSSKB = ru.Maxrss
	res.FirstProbeNs = first - start
	res.TeardownNs = end - last - int64(sum.CooldownActualSecs*1e9)

	res.PacketsSent, res.FramesReceived = sum.PacketsSent, sum.PacketsRecv
	res.ValidResponses, res.UniqueSuccesses = sum.ValidResponses, sum.UniqueSucc
	res.RecvInvalid, res.ReceiveDrops = sum.RecvInvalid, sum.RecvDrops
	res.SendDrops, res.Duplicates = sum.SendDrops, sum.Duplicates
	if sc.results != nil {
		res.Rows = sc.results.lines
		if sh.format == "csv" && res.Rows > 0 {
			res.Rows-- // the header line
		}
	}
	if sc.status != nil {
		res.StatusLines, res.MetadataBytes = sc.status.lines, sc.metadata.bytes
	}
	if sc.reflector != nil {
		for c := range res.Reflected {
			res.Reflected[c] = sc.reflector.tally[c].Load()
		}
	}

	if rec != nil {
		rec.spans[runSpanID-1].End = end
		rec.add(runSpanID, "compile", t0, compiled, 0)
		rec.add(runSpanID, "send_phase", first, last, 0)
		rec.add(runSpanID, "cooldown_and_teardown", last, end, 0)
		if rec.probed != nil {
			res.Unprobed, res.Reprobed = rec.unprobed(res.Targets), rec.reprobed
		}
		res.SendBatchNs, res.SendHeldNs = rec.sendNs, rec.heldNs
		res.BatchFrames50 = quantile(rec.batchSizes, 0.5)
		res.Residence50, res.Residence99 = quantile(rec.residence, 0.5), quantile(rec.residence, 0.99)
		res.ResidenceN = len(rec.residence)
		res.Lag50, res.Lag99 = quantile(rec.lag, 0.5), quantile(rec.lag, 0.99)
		res.LagN = len(rec.lag)
		name := fmt.Sprintf("%s-seed%d.spans.jsonl", sh.name, sh.seed)
		if err := rec.writeSpans(filepath.Join(outDir, name)); err != nil {
			return res, err
		}
	}
	return res, nil
}

// passTimeout is far above any pass, so it only fires on a hang.
const passTimeout = 150 * time.Second

// spawn runs one pass in a fresh child of this same binary.
func spawn(spec passSpec) (passResult, error) {
	var res passResult
	arg, err := json.Marshal(spec)
	if err != nil {
		return res, err
	}
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("pass %s: %w", arg, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return res, fmt.Errorf("pass %s: bad result %q: %w", arg, out, err)
	}
	return res, nil
}

// check is the oracle: it compares what a pass over the given transport
// reported with what was expected and returns how many operations failed
// and why.
func check(sh shape, via transportKind, want expectation, p passResult) (failed uint64, why []string) {
	eq := func(what string, got, exp uint64) {
		if got != exp {
			d := got - exp
			if exp > got {
				d = exp - got
			}
			failed += d
			why = append(why, fmt.Sprintf("%s = %d, want %d", what, got, exp))
		}
	}
	eq("targets", p.Targets, want.Targets)
	eq("packets_sent", p.PacketsSent, want.Targets)
	eq("frames accepted by the transport", p.Frames, want.Targets)
	eq("receive_drops", p.ReceiveDrops, 0)
	eq("send_drops", p.SendDrops, 0)
	eq("unprobed targets", p.Unprobed, 0)
	eq("targets probed twice", p.Reprobed, 0)
	switch via {
	case viaNull:
		eq("frames_received", p.FramesReceived, 0)
	case viaReflector:
		r := p.Reflected
		synacks := r[synackTwice] + r[synackOnce]
		eq("frames_received", p.FramesReceived, 2*r[synackTwice]+r[synackOnce]+r[rst]+r[forged])
		eq("valid_responses", p.ValidResponses, 2*r[synackTwice]+r[synackOnce]+r[rst])
		eq("unique_successes", p.UniqueSuccesses, synacks)
		eq("duplicate_responses", p.Duplicates, r[synackTwice])
		eq("recv_invalid", p.RecvInvalid, r[forged])
		eq("jsonl rows", p.Rows, synacks)
	case viaNetsim:
		eq("unique_successes", p.UniqueSuccesses, want.SimHosts)
		eq("csv rows", p.Rows, want.SimHosts)
	}
	if sh.rate > 0 {
		if off := p.pps()/sh.rate - 1; off > 0.02 || off < -0.02 {
			failed++
			why = append(why, fmt.Sprintf("achieved %.0f pps, want %.0f within 2%%", p.pps(), sh.rate))
		}
	}
	if sh.fullProd && (p.StatusLines == 0 || p.MetadataBytes == 0) {
		failed++
		why = append(why, "status or metadata stream stayed empty")
	}
	return failed, why
}
