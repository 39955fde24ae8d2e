package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"zmapgo/internal/netsim"
	"zmapgo/internal/packet"
	"zmapgo/internal/target"
	"zmapgo/zmap"
)

// workload is one set of inputs the benchmark runs. README.md says why
// each exists and which layers it loads.
type workload struct {
	name string
	why  string
	loop string // closed or open, for the report
	// base/bits is the scanned range at full size; a traced pass scans a
	// quarter of it (bits+2). ports is in zmap.Options syntax.
	base     uint32
	bits     int
	ports    string
	blocked  int     // blocklist CIDRs at full size
	rate     float64 // 0 = unlimited
	threads  int
	format   string // Results format; "" = no Results writer
	via      transportKind
	fullProd bool // checkpoints, JSON status and metadata on
}

type transportKind int

const (
	viaNull      transportKind = iota // the benchmark's null transport
	viaReflector                      // the benchmark's reflector
	viaNetsim                         // the shipped netsim behind the counting wrapper
)

var workloads = []workload{
	{
		name: "send_null", loop: "closed",
		why:  "null transport: generate, limit, render, MAC and SendBatch do all the work, the receive path none",
		base: 64 << 24, bits: 9, ports: "80", threads: 2,
	},
	{
		name: "recv_reflect", loop: "closed",
		why:  "reflector at zero loss: 1.5 frames per target make parse, classify, dedup, filter and write the bottleneck",
		base: 10 << 24, bits: 11, ports: "80", threads: 1, format: "jsonl", via: viaReflector,
	},
	{
		name: "scan_sim", loop: "closed",
		why:  "lossless netsim, two ports, fragmented blocklist: the realistic mix, and send_null plus the simulator",
		base: 10 << 24, bits: 11, ports: "80,443", blocked: 250, threads: 2, format: "csv", via: viaNetsim,
	},
	{
		name: "paced_sim", loop: "open",
		why:  "250 kpps with checkpoints, status and metadata on: the limiter's wait path and the production extras",
		base: 10 << 24, bits: 13, ports: "443", rate: 250000, threads: 2, format: "csv", via: viaNetsim, fullProd: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Everything generated comes from -seed through one of these streams, so
// the scanner receives only generated inputs.
const (
	streamScan = iota + 1
	streamSim
	streamReflect
	streamBlocklist
)

func subSeed(seed int64, stream uint64) uint64 {
	return mix64(uint64(seed)*0x9E3779B97F4A7C15 + stream)
}

// scanSeed is the permutation seed handed to the scanner; it must be
// non-zero, or the scanner draws one from the clock.
func scanSeed(seed int64) int64 { return int64(subSeed(seed, streamScan)>>1) | 1 }

// prefix is a CIDR block.
type prefix struct {
	addr uint32
	bits int
}

func (p prefix) String() string { return fmt.Sprintf("%s/%d", target.FormatIPv4(p.addr), p.bits) }

func (p prefix) size() uint32 { return 1 << (32 - p.bits) }

// blocklist generates n prefixes of /20 to /24 inside the range.
func blocklist(seed int64, within prefix, n int) []prefix {
	rng := rand.New(rand.NewSource(int64(subSeed(seed, streamBlocklist))))
	out := make([]prefix, n)
	for i := range out {
		p := prefix{bits: 20 + rng.Intn(5)}
		offset := rng.Uint32() >> within.bits
		p.addr = within.addr | offset&^(p.size()-1)
		out[i] = p
	}
	return out
}

// simInternet is the shipped default population made lossless, blowback
// left on.
func simInternet(seed int64) *netsim.Internet {
	cfg := netsim.DefaultConfig(subSeed(seed, streamSim))
	cfg.ProbeLoss, cfg.ResponseLoss, cfg.PathBadFraction = 0, 0, 0
	return netsim.New(cfg)
}

// shape is a workload at one size: shift 0 is full size, 2 a quarter.
type shape struct {
	workload
	seed  int64
	shift int
}

func (s shape) scanned() prefix { return prefix{s.base, s.bits + s.shift} }

func (s shape) blocklist() []prefix {
	return blocklist(s.seed, s.scanned(), s.blocked>>s.shift)
}

// scan is a workload's compiled inputs: the options, the transport and
// the sinks the oracle reads afterwards.
type scan struct {
	opts      zmap.Options
	transport zmap.Transport
	send      *sendSide       // the transport's stamps and frame count
	reflector *reflector      // the transport again when it is the reflector, for its tallies
	results   *countingWriter // nil when the workload has no Results stream
	status    *countingWriter
	metadata  *countingWriter
}

// build makes the scan for this shape over the given transport; a traced
// run prices a workload's send side alone by giving viaNull in place of
// s.via. dir holds the checkpoint file.
func (s shape) build(rec *recorder, via transportKind, dir string) scan {
	sc := scan{opts: zmap.Options{
		Ranges:   []string{s.scanned().String()},
		Ports:    s.ports,
		Seed:     scanSeed(s.seed),
		Threads:  s.threads,
		Rate:     s.rate,
		Cooldown: 100 * time.Millisecond,
		Format:   s.format,
	}}
	for _, p := range s.blocklist() {
		sc.opts.Blocklist = append(sc.opts.Blocklist, p.String())
	}
	if s.format != "" {
		sc.results = &countingWriter{rec: rec}
		sc.opts.Results = sc.results
	}
	if s.fullProd {
		sc.status, sc.metadata = &countingWriter{}, &countingWriter{}
		sc.opts.CheckpointPath = filepath.Join(dir, "scan.ckpt")
		sc.opts.CheckpointInterval = time.Second
		sc.opts.StatusUpdates = sc.status
		sc.opts.StatusFormat = "json"
		sc.opts.Metadata = sc.metadata
	}
	switch via {
	case viaNull:
		t := newNullTransport(rec)
		sc.transport, sc.send = t, &t.sendSide
	case viaReflector:
		t := newReflector(subSeed(s.seed, streamReflect), rec)
		sc.transport, sc.send, sc.reflector = t, &t.sendSide, t
	case viaNetsim:
		t := newSimTransport(simInternet(s.seed), rec)
		sc.transport, sc.send = t, &t.sendSide
	}
	return sc
}

// eligible walks the shape's range in address order, skipping blocklisted
// addresses, without going through the scanner's own target.Constraint.
func (s shape) eligible(visit func(ip uint32)) {
	denied := make([]bool, s.scanned().size())
	for _, p := range s.blocklist() {
		first := p.addr - s.base
		for i := first; i < first+p.size(); i++ {
			denied[i] = true
		}
	}
	for i, no := range denied {
		if !no {
			visit(s.base + uint32(i))
		}
	}
}

// expectation is what the oracle knows before a pass runs.
type expectation struct {
	Targets  uint64 // eligible addresses x ports
	SimHosts uint64 // (ip, port) pairs netsim answers with a SYN-ACK; sim workloads only
}

func (s shape) expect() (expectation, error) {
	ports, err := target.ParsePorts(s.ports)
	if err != nil {
		return expectation{}, err
	}
	var in *netsim.Internet
	if s.via == viaNetsim {
		in = simInternet(s.seed)
	}
	opts := packet.BuildOptions(packet.LayoutMSS, 0)
	var e expectation
	s.eligible(func(ip uint32) {
		for i := 0; i < ports.Len(); i++ {
			e.Targets++
			if in != nil && in.ExpectedSYNACK(ip, ports.At(i), opts) {
				e.SimHosts++
			}
		}
	})
	return e, nil
}
