package zmap

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// The sim link, with whatever injectors are stacked on it, is a Transport.
var _ Transport = (*Link)(nil)

func quickScan(t *testing.T, opts Options) (*Summary, *Internet) {
	t.Helper()
	in := NewInternet(SimOptions{Seed: 500, Lossless: true, DisableBlowback: true})
	link := in.NewLink(1<<16, 0)
	t.Cleanup(link.Close)
	if opts.Cooldown == 0 {
		opts.Cooldown = 100 * time.Millisecond
	}
	s, err := opts.Compile(link)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum, in
}

func TestQuickScanTextOutput(t *testing.T) {
	var buf bytes.Buffer
	sum, in := quickScan(t, Options{
		Ranges:  []string{"10.0.0.0/19"},
		Ports:   "80",
		Seed:    7,
		Threads: 2,
		Results: &buf,
	})
	if sum.PacketsSent != 8192 {
		t.Errorf("sent %d, want 8192", sum.PacketsSent)
	}
	lines := strings.Fields(buf.String())
	if uint64(len(lines)) != sum.UniqueSucc {
		t.Errorf("%d output lines, %d unique successes", len(lines), sum.UniqueSucc)
	}
	// Every reported address is genuinely responsive.
	for _, addr := range lines {
		if !strings.HasPrefix(addr, "10.0.") {
			t.Fatalf("address %s outside scanned range", addr)
		}
	}
	_ = in
}

func TestCompileErrors(t *testing.T) {
	in := NewInternet(SimOptions{Seed: 1})
	link := in.NewLink(16, 0)
	defer link.Close()
	bad := []Options{
		{Ranges: []string{"not-an-ip/8"}},
		{Blocklist: []string{"bad"}},
		{Ports: "99999"},
		{Probe: "nonexistent"},
		{TCPOptions: "bogus"},
		{Bandwidth: "1Q"},
		{SourceIP: "nope"},
		{Filter: "bad ~ filter"},
		{Format: "redis", Results: &bytes.Buffer{}},
	}
	for i, o := range bad {
		if o.Ports == "" {
			o.Ports = "80"
		}
		if _, err := o.Compile(link); err == nil {
			t.Errorf("case %d: Compile succeeded, want error", i)
		}
	}
}

func TestBandwidthSetsRate(t *testing.T) {
	in := NewInternet(SimOptions{Seed: 2})
	link := in.NewLink(16, 0)
	defer link.Close()
	s, err := Options{
		Ranges:    []string{"10.0.0.0/30"},
		Bandwidth: "1G",
		Cooldown:  time.Millisecond,
	}.Compile(link)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 1G / 84-byte wire frames = 1.488 Mpps configured.
	if sum.RatePPS < 1.48e6 || sum.RatePPS > 1.49e6 {
		t.Errorf("bandwidth-derived rate %.0f, want ~1.488e6", sum.RatePPS)
	}
}

func TestBlocklistFile(t *testing.T) {
	var buf bytes.Buffer
	sum, _ := quickScan(t, Options{
		Ranges:        []string{"10.0.0.0/20"},
		BlocklistFile: strings.NewReader("10.0.0.0/21 # lower half\n"),
		Ports:         "80",
		Seed:          3,
		Results:       &buf,
	})
	if sum.PacketsSent != 2048 {
		t.Errorf("sent %d, want 2048 (half blocklisted)", sum.PacketsSent)
	}
	for _, addr := range strings.Fields(buf.String()) {
		if strings.HasPrefix(addr, "10.0.0.") || strings.HasPrefix(addr, "10.0.7.") {
			// 10.0.0.0-10.0.7.255 is blocked.
			t.Fatalf("blocklisted address %s probed", addr)
		}
	}
}

func TestMultiportJSONL(t *testing.T) {
	var buf bytes.Buffer
	sum, _ := quickScan(t, Options{
		Ranges:  []string{"10.0.0.0/20"},
		Ports:   "80,443",
		Format:  "jsonl",
		Seed:    4,
		Results: &buf,
	})
	if sum.PacketsSent != 4096*2 {
		t.Errorf("sent %d, want 8192", sum.PacketsSent)
	}
	if sum.Ports != "80,443" {
		t.Errorf("ports %q", sum.Ports)
	}
	if sum.UniqueSucc > 0 && !strings.Contains(buf.String(), "\"sport\"") {
		t.Error("jsonl output missing sport field")
	}
}

func TestFilterPlumbing(t *testing.T) {
	var all, succ bytes.Buffer
	quickScan(t, Options{
		Ranges: []string{"10.0.0.0/21"}, Ports: "80", Seed: 5,
		Filter: "success = 1 || success = 0", Format: "csv", Results: &all,
	})
	quickScan(t, Options{
		Ranges: []string{"10.0.0.0/21"}, Ports: "80", Seed: 5,
		Format: "csv", Results: &succ,
	})
	if all.Len() <= succ.Len() {
		t.Error("all-pass filter did not produce more rows than default")
	}
}

func TestShardedScansPartition(t *testing.T) {
	var a, b bytes.Buffer
	optsFor := func(idx int, w *bytes.Buffer) Options {
		return Options{
			Ranges: []string{"10.0.0.0/20"}, Ports: "80", Seed: 99,
			Shards: 2, ShardIndex: idx, Results: w,
		}
	}
	sumA, _ := quickScan(t, optsFor(0, &a))
	sumB, _ := quickScan(t, optsFor(1, &b))
	if sumA.PacketsSent+sumB.PacketsSent != 4096 {
		t.Errorf("shards sent %d+%d, want 4096", sumA.PacketsSent, sumB.PacketsSent)
	}
	seen := map[string]bool{}
	for _, addr := range strings.Fields(a.String()) {
		seen[addr] = true
	}
	for _, addr := range strings.Fields(b.String()) {
		if seen[addr] {
			t.Fatalf("%s found by both shards", addr)
		}
	}
}

func TestStaticVsRandomIPID(t *testing.T) {
	s1, _ := quickScan(t, Options{Ranges: []string{"10.0.0.0/24"}, Ports: "80", Seed: 6, StaticIPID: true})
	if s1.RandomIPID {
		t.Error("StaticIPID option not plumbed")
	}
	s2, _ := quickScan(t, Options{Ranges: []string{"10.0.0.0/24"}, Ports: "80", Seed: 6})
	if !s2.RandomIPID {
		t.Error("random IP ID should be the default")
	}
}

func TestOptionLayouts(t *testing.T) {
	names := OptionLayouts()
	if len(names) != 9 || names[0] != "none" || names[1] != "mss" {
		t.Errorf("layouts = %v", names)
	}
}

func TestParseTargets(t *testing.T) {
	got := ParseTargets(" 10.0.0.0/8 , 192.168.0.0/16 ,")
	if len(got) != 2 || got[0] != "10.0.0.0/8" || got[1] != "192.168.0.0/16" {
		t.Errorf("ParseTargets = %v", got)
	}
	if ParseTargets("  ") != nil {
		t.Error("blank spec should be nil")
	}
}

func TestGroundTruthHelpers(t *testing.T) {
	in := NewInternet(SimOptions{Seed: 8, Lossless: true})
	foundService, foundMiddlebox := false, false
	for ip := uint32(0); ip < 400_000_000 && !(foundService && foundMiddlebox); ip += 65543 {
		if in.ServiceOpen(ip, 80) {
			foundService = true
			if in.Banner(ip, 80) == "" && in.Grab(ip, 80).ServiceDetected {
				t.Error("grab detected service without banner")
			}
		}
		if in.Middlebox(ip) && !in.ServiceOpen(ip, 80) {
			foundMiddlebox = true
			g := in.Grab(ip, 80)
			if !g.HandshakeOK || g.ServiceDetected {
				t.Errorf("middlebox grab %+v", g)
			}
		}
	}
	if !foundService || !foundMiddlebox {
		t.Fatal("ground truth sampling failed")
	}
	if in.RTT(1) <= 0 {
		t.Error("RTT not positive")
	}
}

func TestSchemaExported(t *testing.T) {
	if len(Schema()) != 8 {
		t.Error("schema should have 8 fields")
	}
	if Version == "" {
		t.Error("version empty")
	}
}

func TestGrabStructuredPublicAPI(t *testing.T) {
	in := NewInternet(SimOptions{Seed: 8, Lossless: true})
	if len(GrabModules()) != 4 {
		t.Errorf("GrabModules = %v", GrabModules())
	}
	var httpIP uint32
	found := false
	for ip := uint32(0); ip < 2_000_000 && !found; ip++ {
		g := in.Grab(ip, 80)
		if g.ServiceDetected && g.Protocol == "http" {
			httpIP, found = ip, true
		}
	}
	if !found {
		t.Fatal("no HTTP service found")
	}
	r, fields, err := in.GrabStructured(httpIP, 80, "")
	if err != nil || !r.ServiceDetected {
		t.Fatalf("auto grab: %+v %v", r, err)
	}
	if fields["protocol"] != "http" || fields["status_code"] != "200" {
		t.Errorf("fields %v", fields)
	}
	if _, _, err := in.GrabStructured(httpIP, 80, "bogus"); err == nil {
		t.Error("bogus module accepted")
	}
}
