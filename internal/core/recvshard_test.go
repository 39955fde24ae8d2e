package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/dedup"
	"zmapgo/internal/netsim"
	"zmapgo/internal/output"
	"zmapgo/internal/packet"
)

// canonRecords reduces a record set to a sorted, byte-comparable form.
// Timestamp is wall-clock and InCooldown is a timing annotation (a
// reordered straggler may land on either side of the cooldown boundary
// run to run); both are zeroed because neither is scan output the
// sharded path is allowed to change. Everything else — address, port,
// classification, success, repeat — must match byte for byte.
func canonRecords(t *testing.T, recs []output.Record) string {
	t.Helper()
	lines := make([]string, 0, len(recs))
	for _, r := range recs {
		r.Timestamp = 0
		r.InCooldown = false
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// recvTaxonomy is the rejection/acceptance accounting a scan reports;
// the sharded receive path must reproduce it exactly.
type recvTaxonomy struct {
	Recv, Truncated, Unsupported, Checksum, Invalid uint64
	Valid, Successes, Unique, Duplicates            uint64
}

func taxonomyOf(meta *output.Metadata) recvTaxonomy {
	return recvTaxonomy{
		Recv:        meta.PacketsRecv,
		Truncated:   meta.RecvTruncated,
		Unsupported: meta.RecvUnsupported,
		Checksum:    meta.RecvChecksumFail,
		Invalid:     meta.RecvInvalid,
		Valid:       meta.ValidResponses,
		Successes:   meta.Successes,
		Unique:      meta.UniqueSucc,
		Duplicates:  meta.Duplicates,
	}
}

// runFaultyScan executes one complete scan over the 10.0.0.0/18 testbed
// with the full receive-fault taxonomy enabled, single sender thread and
// zero link latency so traffic order — and therefore the seeded fault
// schedule — is identical run to run regardless of worker count.
func runFaultyScan(t *testing.T, workers int) (string, recvTaxonomy) {
	t.Helper()
	in, cfg, sink := testbed(t, 150, "80")
	cfg.Threads = 1
	cfg.RecvWorkers = workers
	link := netsim.NewLink(in, 1<<16, 0)
	defer link.Close()
	ft := netsim.NewRecvFaultTransport(link, netsim.RecvFaultConfig{
		Seed:          150,
		TruncateProb:  0.10,
		CorruptProb:   0.10,
		DuplicateProb: 0.20,
		ReorderProb:   0.20,
		ReorderDelay:  time.Millisecond,
		SpoofProb:     0.10,
	})
	defer ft.Stop()
	s, err := New(cfg, ft)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ft.Drain()
	assertBooksBalance(t, meta, s.Registry(), uint64(len(sink.all())))
	return canonRecords(t, sink.all()), taxonomyOf(meta)
}

// TestShardedRecvEquivalence proves the tentpole's correctness bar: the
// sharded receive path at 2, 4, and 8 workers produces byte-identical
// output records and an identical rejection taxonomy to the 1-worker
// reference, under duplicates, reordering, truncation, corruption, and
// spoofed traffic.
func TestShardedRecvEquivalence(t *testing.T) {
	refRecords, refTax := runFaultyScan(t, 1)
	if refTax.Duplicates == 0 || refTax.Checksum == 0 || refTax.Invalid == 0 {
		t.Fatalf("reference run exercised too little of the taxonomy: %+v", refTax)
	}
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			records, tax := runFaultyScan(t, workers)
			if tax != refTax {
				t.Errorf("counter taxonomy diverged:\n got %+v\nwant %+v", tax, refTax)
			}
			if records != refRecords {
				t.Errorf("output records diverged from 1-worker reference\n got %d bytes\nwant %d bytes",
					len(records), len(refRecords))
			}
		})
	}
}

// TestShardedRecvResumeExactlyOnce is the kill-and-resume e2e for the
// per-shard dedup state: run 1 scans with 4 receive workers under
// duplicate faults and is gracefully stopped mid-scan; run 2 resumes
// from the final checkpoint with 2 workers (the merged key set must
// re-partition cleanly across a different worker count). The union must
// report every service exactly once even though the duplicate faults
// keep replaying responses the first run already saw.
func TestShardedRecvResumeExactlyOnce(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "scan.ckpt")
	faults := netsim.RecvFaultConfig{Seed: 151, DuplicateProb: 0.5}

	in, cfg, sink1 := testbed(t, 151, "80")
	cfg.Threads = 1
	cfg.RecvWorkers = 4
	cfg.Rate = 20000
	cfg.Cooldown = 150 * time.Millisecond
	cfg.CheckpointPath = ckpt
	link1 := netsim.NewLink(in, 1<<16, 0)
	ft1 := netsim.NewRecvFaultTransport(link1, faults)
	s1, err := New(cfg, ft1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *output.Metadata, 1)
	go func() {
		m, err := s1.Run(context.Background())
		if err != nil {
			t.Errorf("run 1: %v", err)
		}
		done <- m
	}()
	time.Sleep(150 * time.Millisecond)
	s1.Stop()
	meta1 := <-done
	ft1.Drain()
	ft1.Stop()
	link1.Close()
	if meta1.PacketsSent == 0 || meta1.PacketsSent >= 16384 {
		t.Fatalf("interrupt landed outside the scan: sent %d", meta1.PacketsSent)
	}
	if meta1.Duplicates == 0 {
		t.Fatal("run 1 saw no duplicates; the resume proves nothing")
	}

	snap, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dedup == nil {
		t.Fatal("final checkpoint carries no dedup state")
	}
	keys, err := checkpoint.DecodeKeys(snap.Dedup.Keys)
	if err != nil {
		t.Fatal(err)
	}
	// The merged window must hold every distinct response run 1 wrote.
	distinct := 0
	for _, r := range sink1.all() {
		if !r.Repeat {
			distinct++
		}
	}
	if len(keys) != distinct {
		t.Errorf("merged dedup carries %d keys, run 1 saw %d distinct responses", len(keys), distinct)
	}

	// Run 2: resume with a DIFFERENT worker count against an identically
	// populated simulator; the flow hash re-partitions the restored keys.
	in2, cfg2, sink2 := testbed(t, 151, "80")
	cfg2.Threads = 1
	cfg2.RecvWorkers = 2
	cfg2.Cooldown = 150 * time.Millisecond
	cfg2.Seed = 0 // adopted from the checkpoint
	cfg2.Resume = snap
	cfg2.CheckpointPath = ckpt
	link2 := netsim.NewLink(in2, 1<<16, 0)
	ft2 := netsim.NewRecvFaultTransport(link2, faults)
	defer ft2.Stop()
	defer link2.Close()
	s2, err := New(cfg2, ft2)
	if err != nil {
		t.Fatal(err)
	}
	meta2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ft2.Drain()

	if total := meta1.PacketsSent + meta2.PacketsSent; total != 16384 {
		t.Errorf("runs sent %d+%d = %d probes, want exactly 16384",
			meta1.PacketsSent, meta2.PacketsSent, total)
	}
	seen := map[string]int{}
	for _, r := range append(sink1.all(), sink2.all()...) {
		if r.Success && !r.Repeat {
			seen[r.Saddr()]++
		}
	}
	for addr, n := range seen {
		if n != 1 {
			t.Errorf("%s reported as new success %d times across the runs", addr, n)
		}
	}
	want := expectedHits(in, []uint16{80}, cfg.OptionLayout)
	if len(seen) != want {
		t.Errorf("union found %d services, ground truth %d", len(seen), want)
	}
}

// collectResponseFrames harvests n structurally valid, correctly
// checksummed response frames that s's validator will accept, by showing
// s's own probes to a private lossless simulator in which a middlebox
// SYN-ACKs every address. Each frame answers a distinct target, so it
// exercises the dedup first-sighting path the first time it is replayed
// and, while it stays in the window, the repeat path after that.
func collectResponseFrames(t testing.TB, s *Scanner, n int) [][]byte {
	simCfg := netsim.DefaultConfig(77)
	simCfg.ProbeLoss, simCfg.ResponseLoss, simCfg.PathBadFraction = 0, 0, 0
	simCfg.BlowbackFraction = 0
	simCfg.MiddleboxFraction = 1
	in := netsim.New(simCfg)
	frames := make([][]byte, 0, n)
	var probe []byte
	for ip := uint32(0x0A000000); len(frames) < n; ip++ {
		var err error
		if probe, err = s.module.MakeProbe(probe[:0], &s.probeCtx, ip, 80); err != nil {
			t.Fatal(err)
		}
		resp := in.Respond(probe)
		if len(resp) != 1 {
			t.Fatalf("%d responses for target %x, want 1", len(resp), ip)
		}
		frames = append(frames, resp[0].Frame)
	}
	return frames
}

// discardRows is the Results stack Compile builds — default filter over
// a JSON Lines writer — into a stream that drops the bytes.
func discardRows() output.Writer {
	return &output.Filtered{W: output.NewJSONLWriter(io.Discard), Filter: output.MustCompileFilter(output.DefaultFilterExpr)}
}

// newRecvBenchScanner builds a scanner suitable for driving recvLoop
// directly (no Run): single sender config, sharded receive workers, and
// a modest dedup window so construction stays cheap.
func newRecvBenchScanner(t testing.TB, workers int, tr Transport, results output.Writer) *Scanner {
	cons := newBenchConstraint()
	ps, err := parseBenchPorts()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Constraint:   cons,
		Ports:        ps,
		Seed:         7,
		Threads:      1,
		RecvWorkers:  workers,
		DedupWindow:  recvBenchWindow,
		SourceIP:     0xC0A80002,
		SourceMAC:    packet.MAC{2, 0, 0, 0, 0, 1},
		GatewayMAC:   packet.MAC{2, 0, 0, 0, 0, 2},
		OptionLayout: packet.LayoutMSS,
		RandomIPID:   true,
		Results:      results,
	}
	s, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	s.start = time.Now()
	return s
}

const recvBenchWindow = 1 << 16

// TestShardedRecvZeroAllocs pins the perf acceptance bar: once buffers
// have grown to their working size, handling a frame end to end —
// parse+verify, classify, dedup, result buffering — plus the
// merge-writer drain that encodes and flushes its row allocates nothing.
// Every frame comes from a responder never seen before, so each one is a
// dedup insert and a written row: the claim holds for a scan of distinct
// hosts, not only for a replayed set.
func TestShardedRecvZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are not meaningful")
	}
	const batch, runs = 64, 100
	s := newRecvBenchScanner(t, 1, newReplayTransport(nil), discardRows())
	frames := collectResponseFrames(t, s, batch*(runs+3)) // 2 warm-ups + AllocsPerRun's own
	w := s.recvPipe.workers[0]
	var cooldownAt atomic.Int64
	handleNext := func() {
		t0 := time.Now()
		for _, f := range frames[:batch] {
			s.handleFrame(w, f, t0, &cooldownAt)
		}
		frames = frames[batch:]
		s.drainResults()
	}
	handleNext() // warm: result buffers and the row buffer grow
	handleNext()
	if allocs := testing.AllocsPerRun(runs, handleNext); allocs != 0 {
		t.Fatalf("sharded receive path allocates %.2f objects per %d-frame batch, want 0", allocs, batch)
	}
	if got, want := output.Written(s.cfg.Results), uint64(batch*(runs+3)); got != want {
		t.Fatalf("%d rows written for %d first sightings", got, want)
	}
}

// TestRestoreDedupShardsAcrossWorkerCounts: keys captured from one
// worker layout (worker order, oldest first within each shard — the
// checkpoint's form) replay into any other layout with every key landing
// on the shard that will see its flow, none lost and none invented.
func TestRestoreDedupShardsAcrossWorkerCounts(t *testing.T) {
	shards := func(n, each int) []*dedup.Window {
		ws := make([]*dedup.Window, n)
		for i := range ws {
			ws[i] = dedup.NewWindow(each)
		}
		return ws
	}
	const keys = 5000
	for _, from := range []int{1, 2, 8} {
		src := shards(from, keys)
		for i := uint32(0); i < keys; i++ {
			ip, port := i*2654435761, uint16(i%3)
			if src[dedup.ShardOf(ip, port, uint32(from-1))].Seen(ip, port) {
				t.Fatalf("key %d seen twice", i)
			}
		}
		var snapshot []uint64
		for _, w := range src {
			snapshot = append(snapshot, w.Keys()...)
		}
		for _, to := range []int{1, 4, 16} {
			dst := shards(to, keys)
			restoreDedupShards(dst, snapshot)
			total := 0
			for _, w := range dst {
				total += w.Len()
			}
			if total != keys {
				t.Fatalf("%d -> %d workers: %d keys restored, want %d", from, to, total, keys)
			}
			for _, k := range snapshot {
				ip, port := uint32(k>>16), uint16(k)
				if !dst[dedup.ShardOf(ip, port, uint32(to-1))].Seen(ip, port) {
					t.Fatalf("%d -> %d workers: key %#x is not on the shard its flow hashes to", from, to, k)
				}
			}
		}
	}
}
