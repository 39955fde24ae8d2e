package zmap

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/health"
	"zmapgo/internal/packet"
)

// What becomes of each Options field in a fleet. Every field is in
// exactly one list; TestOptionsFieldsAreDecided fails on a field in none,
// so adding an option means deciding here whether a fleet carries it.
var (
	// Carried to every worker unchanged, inside the scan document.
	optionsTravel = []string{
		"Ranges", "Blocklist", "Ports", "Probe", "Rate", "Bandwidth", "BatchSize",
		"RecvWorkers", "Seed", "Threads", "TCPOptions", "StaticIPID", "ProbesPerTarget",
		"MaxTargets", "Cooldown", "CooldownMax", "AdaptiveRate", "MinRate",
		"QuarantineThreshold", "HealthInterval", "MaxRuntime", "Retries", "Backoff",
		"MaxSenderRestarts", "DedupWindow", "SourceIP", "Format", "Filter",
		"StatusFormat", "StatusCSVHeader", "StatusInterval", "TraceSampleEvery",
		"TraceRingSize",
	}
	// Cannot reach another process: RunFleet refuses them when set.
	optionsRefused = []string{"BlocklistFile", "StatusUpdates", "Metrics", "Health"}
	// Set by the worker runtime for its own shard, so RunFleet refuses
	// them too: a caller's value would be overwritten.
	optionsPerWorker = []string{
		"Shards", "ShardIndex", "Results", "Metadata", "CheckpointPath",
		"CheckpointInterval", "Resume", "Logger",
	}
	// The options that decide the permutation, by the checkpoint
	// fingerprint field each lands in.
	optionsFingerprinted = map[string]string{
		"Seed": "seed", "Shards": "shards", "ShardIndex": "shard_index",
		"Threads": "threads", "Probe": "probe_module", "Ports": "ports",
		"ProbesPerTarget": "probes_per_target",
		"Ranges":          "targets_digest", "Blocklist": "targets_digest", "BlocklistFile": "targets_digest",
	}
)

// setNonZero gives an Options field a value JSON must carry: non-zero,
// and for the few fields RunFleet reads, one it accepts.
func setNonZero(t *testing.T, o *Options, name string) {
	t.Helper()
	f := reflect.ValueOf(o).Elem().FieldByName(name)
	switch v := f.Addr().Interface().(type) {
	case *string:
		*v = map[string]string{"Ports": "80,443", "Probe": "udp", "Bandwidth": "10M",
			"TCPOptions": "linux", "SourceIP": "192.0.2.9", "Format": "csv",
			"Filter": "success = 1", "StatusFormat": "json"}[name]
		if *v == "" {
			*v = "/tmp/x"
		}
	case *[]string:
		*v = []string{"10.1.0.0/16", "10.2.0.0/24"}
	case *int:
		*v = 3
	case *int64:
		*v = 3
	case *uint64:
		*v = 3
	case *float64:
		*v = 0.5
	case *bool:
		*v = true
	case *time.Duration:
		*v = 3 * time.Second
	case *io.Reader:
		*v = strings.NewReader("10.0.0.0/8\n")
	case *io.Writer:
		*v = io.Discard
	case **MetricsRegistry:
		*v = new(MetricsRegistry)
	case **health.Config:
		*v = &health.Config{}
	case **Checkpoint:
		*v = &Checkpoint{}
	case **slog.Logger:
		*v = slog.New(slog.NewTextHandler(io.Discard, nil))
	default:
		t.Fatalf("Options.%s has type %s: teach setNonZero about it", name, f.Type())
	}
	if f.IsZero() {
		t.Fatalf("Options.%s still zero", name)
	}
}

// refusalNames reports whether err is a refusal of the named field: the
// message starts "zmap: FleetOptions.Scan.<Field>[/<Field>]".
func refusalNames(err error, name string) bool {
	if err == nil {
		return false
	}
	rest, ok := strings.CutPrefix(err.Error(), "zmap: FleetOptions.Scan.")
	fields, _, _ := strings.Cut(rest, " ")
	for _, f := range strings.Split(strings.TrimSuffix(fields, ":"), "/") {
		if ok && f == name {
			return true
		}
	}
	return false
}

func TestOptionsFieldsAreDecided(t *testing.T) {
	fate := map[string]string{}
	for set, names := range map[string][]string{
		"travels": optionsTravel, "refused": optionsRefused, "per worker": optionsPerWorker,
	} {
		for _, n := range names {
			if prev, dup := fate[n]; dup {
				t.Errorf("Options.%s is listed as both %q and %q", n, prev, set)
			}
			fate[n] = set
		}
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if fate[name] == "" {
			t.Errorf("Options.%s is in no list: decide whether a fleet carries it, refuses it or sets it per worker", name)
		}
		delete(fate, name)
	}
	for name := range fate {
		t.Errorf("%s is listed but is not an Options field", name)
	}

	// Everything that travels round-trips through the scan document, all
	// at once, and RunFleet's gate lets it through.
	sent := Options{}
	for _, name := range optionsTravel {
		setNonZero(t, &sent, name)
	}
	if err := sent.fleetRefusal(); err != nil {
		t.Errorf("a scan of travelling options only is refused: %v", err)
	}
	doc, err := json.Marshal(fleetScan{Options: sent, Sim: fleetSim, SimTimeScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeFleetScan(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Options, sent) {
		t.Errorf("options changed in transit:\n sent %+v\n got  %+v", sent, got.Options)
	}
	if got.Sim != fleetSim || got.SimTimeScale != 0.5 {
		t.Errorf("sim changed in transit: %+v scale %v", got.Sim, got.SimTimeScale)
	}

	// Everything else is refused by name, one field at a time.
	for _, name := range append(append([]string{}, optionsRefused...), optionsPerWorker...) {
		o := Options{Seed: 1}
		setNonZero(t, &o, name)
		if err := o.fleetRefusal(); !refusalNames(err, name) {
			t.Errorf("Scan.%s set: fleetRefusal returned %v, want an error naming it", name, err)
		}
	}
	if err := (Options{}).fleetRefusal(); !refusalNames(err, "Seed") {
		t.Errorf("seed 0: fleetRefusal returned %v, want an error naming Seed", err)
	}
	if err := (Options{Seed: 1, Shards: 1}).fleetRefusal(); err != nil {
		t.Errorf("Shards 1 of a single-process scan is refused: %v", err)
	}

	// The fingerprinted options cover the fingerprint: every field of
	// checkpoint.Fingerprint but the constant shard_mode has an option
	// behind it, and every name here is a real option.
	covered := map[string]bool{"shard_mode": true}
	for name, tag := range optionsFingerprinted {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("fingerprinted option %s is not an Options field", name)
		}
		covered[tag] = true
	}
	fp := reflect.TypeOf(checkpoint.Fingerprint{})
	for i := 0; i < fp.NumField(); i++ {
		tag, _, _ := strings.Cut(fp.Field(i).Tag.Get("json"), ",")
		if !covered[tag] {
			t.Errorf("checkpoint.Fingerprint.%s (%s) has no option in optionsFingerprinted", fp.Field(i).Name, tag)
		}
		delete(covered, tag)
	}
	for tag := range covered {
		t.Errorf("optionsFingerprinted names fingerprint field %q, which does not exist", tag)
	}
}

// TestRunFleetRefusesBlocklistFile: the failure the refusal rule exists
// for. A reader cannot be marshalled; dropping it would scan what the
// operator excluded.
func TestRunFleetRefusesBlocklistFile(t *testing.T) {
	_, err := RunFleet(context.Background(), FleetOptions{
		Workers: 2,
		Dir:     t.TempDir(),
		Scan: Options{
			Ranges:        []string{"10.0.0.0/24"},
			Seed:          5,
			BlocklistFile: strings.NewReader("10.0.0.0/25\n"),
		},
	})
	if err == nil || !strings.Contains(err.Error(), "BlocklistFile") || !strings.Contains(err.Error(), "in Blocklist") {
		t.Fatalf("RunFleet returned %v, want a refusal of BlocklistFile pointing at Blocklist", err)
	}
}

// TestFleetFingerprintsAreTheWorkers: the fingerprint the coordinator
// expects of shard i is the one a worker's Compile embeds in its
// checkpoints, under options that all differ from their defaults.
func TestFleetFingerprintsAreTheWorkers(t *testing.T) {
	scan := Options{
		Ranges:          []string{"10.0.0.0/16"},
		Blocklist:       []string{"10.0.3.0/24", "10.0.128.0/17"},
		Ports:           "80,443,8000-8003",
		Probe:           "udp",
		ProbesPerTarget: 2,
		Threads:         3,
		Seed:            7,
		Bandwidth:       "10M",
	}
	const workers = 3
	cfg, err := FleetOptions{Workers: workers, Scan: scan, Sim: fleetSim}.config()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Fingerprints) != workers {
		t.Fatalf("%d fingerprints for %d workers", len(cfg.Fingerprints), workers)
	}
	link := NewInternet(fleetSim).NewLink(0, 0)
	defer link.Close()
	doc, err := decodeFleetScan(cfg.Scan)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range cfg.Fingerprints {
		opts := doc.Options
		opts.Shards, opts.ShardIndex = workers, i
		s, err := opts.Compile(link)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.inner.Fingerprint(); got != want {
			t.Errorf("shard %d: coordinator expects %+v, worker computes %+v", i, want, got)
		}
		if want.ShardIndex != i || want.Shards != workers || want.ProbeModule != "udp" ||
			want.Threads != 3 || want.ProbesPerTarget != 2 || want.ShardMode != "pizza" {
			t.Errorf("shard %d fingerprint does not carry the options: %+v", i, want)
		}
	}
	// -B is the fleet budget: 10 Mbit/s of UDP probes, not of SYNs.
	if scanCfg, _ := scan.config(); cfg.RateBudget != scanCfg.Rate || cfg.RateBudget == 0 {
		t.Errorf("fleet budget %v, scan rate %v", cfg.RateBudget, scanCfg.Rate)
	}
}

// TestBandwidthFollowsProbeModule: -B converts to packets/sec with the
// selected module's frame, not a SYN's. 10 Mbit/s over every (module,
// layout): the wire length is the frame plus FCS, padded to the
// Ethernet minimum, plus preamble and inter-frame gap.
func TestBandwidthFollowsProbeModule(t *testing.T) {
	const eth, ip, tcp, icmp = 14, 20, 20, 8
	for _, layout := range OptionLayouts() {
		l, _ := packet.ParseOptionLayout(layout)
		for module, frame := range map[string]int{
			"":               packet.SYNFrameLen(l), // default module
			"tcp_synscan":    packet.SYNFrameLen(l),
			"tcp_synackscan": eth + ip + tcp,
			"icmp_echoscan":  eth + ip + icmp,
		} {
			cfg, err := Options{Probe: module, TCPOptions: layout, Bandwidth: "10M"}.config()
			if err != nil {
				t.Fatal(err)
			}
			want := 10e6 / (8 * float64(packet.WireLen(frame)))
			if cfg.Rate != want {
				t.Errorf("-M %q --probe-tcp-options %s -B 10M: %.1f pps, want %.1f (%d-byte frame)",
					module, layout, cfg.Rate, want, frame)
			}
		}
	}
	// The issue's example: a 42-byte echo occupies 84 bytes of wire.
	cfg, err := Options{Probe: "icmp_echoscan", TCPOptions: "linux", Bandwidth: "10M"}.config()
	if err != nil {
		t.Fatal(err)
	}
	if got := int(cfg.Rate); got != 14880 {
		t.Errorf("icmp_echoscan at 10M paces at %d pps, want 14880", got)
	}
	if _, err := (Options{Probe: "bogus", Bandwidth: "10M"}).config(); err == nil {
		t.Error("unknown module with -B compiled")
	}
}

// scanLines runs one scan in this process and returns its result rows.
func scanLines(t *testing.T, scan Options, sim SimOptions) []string {
	t.Helper()
	link := NewInternet(sim).NewLink(1<<16, 0)
	defer link.Close()
	var buf bytes.Buffer
	scan.Results = &buf
	s, err := scan.Compile(link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return strings.Fields(buf.String())
}

func sortedUnique(lines []string) []string {
	sort.Strings(lines)
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return out
}
