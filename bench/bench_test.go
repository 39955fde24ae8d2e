package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"zmapgo/internal/core"
	"zmapgo/zmap"
)

// The benchmark's transports must be usable wherever the scanner takes a
// transport, including the batch and release extensions it probes for.
var (
	_ zmap.Transport      = (*nullTransport)(nil)
	_ core.BatchTransport = (*nullTransport)(nil)
	_ core.BatchReceiver  = (*nullTransport)(nil)
	_ core.FrameReleaser  = (*nullTransport)(nil)
	_ core.BatchTransport = (*simTransport)(nil)
	_ core.BatchReceiver  = (*simTransport)(nil)
	_ core.FrameReleaser  = (*simTransport)(nil)
	_ core.BatchTransport = (*reflector)(nil)
	_ core.BatchReceiver  = (*reflector)(nil)
	_ core.FrameReleaser  = (*reflector)(nil)
)

// inTempDir runs the test from a scratch directory, because a traced pass
// writes its spans under outDir relative to the working directory.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
}

// small is a workload shrunk to a /24 so a whole pass takes milliseconds.
func small(name string) shape {
	w, ok := findWorkload(name)
	if !ok {
		panic(name)
	}
	w.bits, w.blocked = 24, 0
	return shape{workload: w, seed: 7}
}

func mustPass(t *testing.T, sh shape, spec passSpec) (passResult, expectation) {
	t.Helper()
	spec.Via = sh.via
	want, err := sh.expect()
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPass(sh, spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if failed, why := check(sh, sh.via, want, p); failed != 0 {
		t.Fatalf("oracle: %d failed: %v", failed, why)
	}
	return p, want
}

func TestReflectorScanYieldsExactlyTheTalliedRows(t *testing.T) {
	inTempDir(t)
	p, _ := mustPass(t, small("recv_reflect"), passSpec{Record: true})
	r := p.Reflected
	if r[forged] == 0 || r[rst] == 0 || r[synackTwice] == 0 || r[synackOnce] == 0 {
		t.Fatalf("a /24 should draw every reply class, got %v", r)
	}
	if p.RecvInvalid != r[forged] {
		t.Errorf("forged frames: %d rejected, %d sent", p.RecvInvalid, r[forged])
	}
	if p.Rows != r[synackTwice]+r[synackOnce] {
		t.Errorf("rows = %d, want one per SYN-ACK flow, %d", p.Rows, r[synackTwice]+r[synackOnce])
	}
	// Every frame handed off was released, and every row met its hand-off.
	if uint64(p.ResidenceN) != p.FramesReceived {
		t.Errorf("residence samples = %d, frames received = %d", p.ResidenceN, p.FramesReceived)
	}
	if uint64(p.LagN) != p.Rows {
		t.Errorf("lag samples = %d, rows = %d", p.LagN, p.Rows)
	}
	if p.Residence50 <= 0 || p.Lag50 <= 0 {
		t.Errorf("residence p50 = %v ns, lag p50 = %v ns; want both positive", p.Residence50, p.Lag50)
	}
}

func TestNullTransportBitmapProvesExactlyOnce(t *testing.T) {
	inTempDir(t)
	sh := small("send_null")
	p, want := mustPass(t, sh, passSpec{Record: true})
	if p.Frames != want.Targets || p.Unprobed != 0 || p.Reprobed != 0 {
		t.Fatalf("frames %d of %d targets, %d unprobed, %d reprobed", p.Frames, want.Targets, p.Unprobed, p.Reprobed)
	}
	// The oracle must notice a target probed twice and one never probed.
	rec := newRecorder()
	rec.probed, rec.probedBase = make([]uint64, 4), sh.base
	probe := make([]byte, minTCPLen)
	probe[offIPDst] = byte(sh.base >> 24) // base+0, twice
	rec.sendBatch([][]byte{probe, probe}, 0, 1)
	if rec.reprobed != 1 || rec.unprobed(256) != 255 {
		t.Errorf("reprobed = %d, unprobed = %d; want 1 and 255", rec.reprobed, rec.unprobed(256))
	}
}

func TestSimWorkloadsMatchExpectedSYNACKs(t *testing.T) {
	inTempDir(t)
	for _, name := range []string{"scan_sim", "paced_sim"} {
		sh := small(name)
		sh.bits, sh.blocked, sh.rate = 16, 8, 0 // big enough to hold hosts; unpaced so it is quick
		p, want := mustPass(t, sh, passSpec{Record: true})
		if want.SimHosts == 0 || p.UniqueSuccesses != want.SimHosts {
			t.Errorf("%s: %d unique successes, oracle expects %d", name, p.UniqueSuccesses, want.SimHosts)
		}
		if uint64(p.LagN) != p.Rows {
			t.Errorf("%s: lag samples = %d, rows = %d", name, p.LagN, p.Rows)
		}
	}
}

func TestOracleCountsMismatches(t *testing.T) {
	sh := small("recv_reflect")
	p, want := mustPass(t, sh, passSpec{})
	p.Rows -= 2
	p.ReceiveDrops = 3
	if failed, why := check(sh, sh.via, want, p); failed != 5 || len(why) != 2 {
		t.Errorf("failed = %d (%v), want 5 from two violations", failed, why)
	}
}

func TestBlockingRingNeverDrops(t *testing.T) {
	r := newReflector(1, nil)
	const probes = 3 * ringFrames
	frames := fakeProbes(probes)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < probes; i += sendBatchSize {
			if _, err := r.SendBatch(frames[i : i+sendBatchSize]); err != nil {
				t.Error(err)
			}
		}
	}()
	// The consumer takes everything; the test ends only if every reply
	// built was delivered.
	var got uint64
	batch := make([][]byte, 256)
	timeout := time.After(30 * time.Second)
	for sent := false; !sent || got < r.delivered(); {
		select {
		case f := <-r.Recv():
			n := r.RecvBatch(batch)
			r.Release(f)
			for _, f := range batch[:n] {
				r.Release(f)
			}
			got += uint64(n) + 1
		case <-done:
			sent, done = true, nil
		case <-timeout:
			t.Fatalf("received %d of %d frames", got, r.delivered())
		}
	}
	if _, received, dropped := r.Stats(); got != received || dropped != 0 || got < probes {
		t.Errorf("got %d frames, reflector delivered %d and dropped %d", got, received, dropped)
	}
}

// fakeProbes makes n frames aimed at distinct addresses, port 80. Only
// the fields the reflector reads are filled in.
func fakeProbes(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		f := make([]byte, minTCPLen+4)
		f[offIPDst], f[offIPDst+1], f[offIPDst+2], f[offIPDst+3] = 10, byte(i>>16), byte(i>>8), byte(i)
		f[offTCP+3] = 80
		frames[i] = f
	}
	return frames
}

func TestBlocklistIsDeterministicAndInRange(t *testing.T) {
	within := prefix{10 << 24, 11}
	a, b := blocklist(1, within, 250), blocklist(1, within, 250)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different blocklists")
	}
	if reflect.DeepEqual(a, blocklist(2, within, 250)) {
		t.Fatal("different seeds, same blocklist")
	}
	for _, p := range a {
		if p.bits < 20 || p.bits > 24 || p.addr&(p.size()-1) != 0 ||
			p.addr < within.addr || p.addr-within.addr+p.size() > within.size() {
			t.Errorf("%v is not an aligned /20-/24 inside %v", p, within)
		}
	}
}

func TestRowKey(t *testing.T) {
	want := flowKey(10<<24|1<<16|2<<8|3, 443)
	for _, line := range []string{
		"10.1.2.3,443,synack,1,0,0,64,0.001000",
		`{"saddr":"10.1.2.3","sport":443,"classification":"synack"}`,
	} {
		if got, ok := rowKey([]byte(line)); !ok || got != want {
			t.Errorf("rowKey(%q) = %x, %v; want %x", line, got, ok, want)
		}
	}
	if _, ok := rowKey([]byte("saddr,sport,classification")); ok {
		t.Error("the CSV header parsed as a row")
	}
}

func TestCompareHoldsBoundsAndRefusesMixedGOMAXPROCS(t *testing.T) {
	set := func(pps float64) *report {
		m := make(map[string]dist)
		for _, e := range endToEnd {
			m[e.name] = dist{Value: 1, N: 3}
		}
		m["scan_pps"] = dist{Value: pps, N: 3}
		return &report{Env: environment{GOMAXPROCS: 2}, Runs: []runResult{{Workload: "send_null", Metrics: m}}}
	}
	if worse, err := compare(io.Discard, set(100), set(99)); err != nil || worse != 0 {
		t.Errorf("1%% slower: worse = %d, err = %v", worse, err)
	}
	if worse, err := compare(io.Discard, set(100), set(50)); err != nil || worse != 1 {
		t.Errorf("half the speed: worse = %d, err = %v; want 1", worse, err)
	}
	other := set(100)
	other.Env.GOMAXPROCS = 4
	if _, err := compare(io.Discard, set(100), other); err == nil {
		t.Error("compared results taken at different GOMAXPROCS")
	}
}

// BENCHMARK.json repeats the tables in report.go and workload.go; the
// driver reads the file, the binary the tables.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./bench" || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	var ws, e2e, layers []entry
	for _, w := range workloads {
		ws = append(ws, entry{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, entry{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	for _, m := range perLayer {
		layers = append(layers, entry{Name: m.name, Unit: m.unit, Better: m.better})
	}
	if !reflect.DeepEqual(doc.Workloads, ws) {
		t.Errorf("workloads differ:\n json %v\n code %v", doc.Workloads, ws)
	}
	if !reflect.DeepEqual(doc.EndToEnd, e2e) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(doc.PerLayer, layers) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, layers)
	}
}
