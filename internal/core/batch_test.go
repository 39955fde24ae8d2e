package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"zmapgo/internal/netsim"
	"zmapgo/internal/packet"
	"zmapgo/internal/probe"
)

// unbuildableModule is a registered probe module that can build neither
// a probe nor a template, as a shipped module would be under a Context
// it cannot encode.
type unbuildableModule struct{}

var errUnbuildable = errors.New("test module never builds probes")

func (unbuildableModule) Name() string { return "test_unbuildable" }

func (unbuildableModule) MakeProbe(buf []byte, ctx *probe.Context, ip uint32, port uint16) ([]byte, error) {
	return nil, errUnbuildable
}

func (unbuildableModule) MakeTemplate(ctx *probe.Context) (*probe.Renderer, error) {
	return nil, errUnbuildable
}

func (unbuildableModule) Classify(ctx *probe.Context, f *packet.Frame) (probe.Result, bool) {
	return probe.Result{}, false
}

func (unbuildableModule) ProbeLen(ctx *probe.Context) int { return 54 }

func init() { probe.Register(unbuildableModule{}) }

func TestNewRefusesUnbuildableProbe(t *testing.T) {
	// A probe build depends on the scan's context, never on the target:
	// a scan whose module cannot build its template could only send
	// nothing, so New fails with the module's error instead of running.
	in, cfg, _ := testbed(t, 220, "80")
	cfg.ProbeModule = "test_unbuildable"
	link := netsim.NewLink(in, 1<<10, 0)
	defer link.Close()
	if _, err := New(cfg, link); !errors.Is(err, errUnbuildable) {
		t.Fatalf("New error = %v, want the module's build error", err)
	}
}

func TestScanBatchedFaultyTransport(t *testing.T) {
	// Batch size must be invisible to scan semantics: across a sweep of
	// batch sizes, with a transport that fails the first attempt of every
	// frame, the unique-success set and exact send accounting must match
	// a clean run's. This is the batched path's equivalence contract —
	// partial-batch failures, retry classification, and progress all
	// behave as if probes were sent one at a time.
	in, cfg, sink := testbed(t, 221, "80")
	link := netsim.NewLink(in, 1<<16, 0)
	s, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	link.Close()
	if meta.PacketsSent != 16384 {
		t.Fatalf("clean run sent %d, want 16384", meta.PacketsSent)
	}
	cleanSet := uniqueSuccessSet(sink.all())
	if len(cleanSet) == 0 {
		t.Fatal("clean run found no services; test is vacuous")
	}

	for _, batch := range []int{1, 16, 64, 256} {
		batch := batch
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			in2, cfg2, sink2 := testbed(t, 221, "80")
			cfg2.Seed = cfg.Seed
			cfg2.BatchSize = batch
			cfg2.Clock = &lockedClock{now: time.Unix(0, 0)} // instant backoff sleeps
			link2 := netsim.NewLink(in2, 1<<16, 0)
			defer link2.Close()
			faulty := netsim.NewFaultyTransport(link2, netsim.FaultConfig{
				Seed:       uint64(batch),
				FailFirstN: 1,
			})
			s2, err := New(cfg2, faulty)
			if err != nil {
				t.Fatal(err)
			}
			meta2, err := s2.Run(context.Background())
			if err != nil {
				t.Fatalf("faulty batched scan failed: %v", err)
			}
			if meta2.PacketsSent != 16384 {
				t.Errorf("PacketsSent = %d, want 16384", meta2.PacketsSent)
			}
			if meta2.SendErrors != 16384 {
				t.Errorf("SendErrors = %d, want 16384 (one per frame)", meta2.SendErrors)
			}
			if meta2.SendRetries != 16384 {
				t.Errorf("SendRetries = %d, want 16384 (one per frame)", meta2.SendRetries)
			}
			if meta2.SendDrops != 0 {
				t.Errorf("SendDrops = %d, want 0", meta2.SendDrops)
			}
			assertBooksBalance(t, meta2, s2.Registry(), uint64(len(sink2.all())))
			got := uniqueSuccessSet(sink2.all())
			if len(got) != len(cleanSet) {
				t.Fatalf("batch %d found %d services, clean run found %d",
					batch, len(got), len(cleanSet))
			}
			for ip := range got {
				if !cleanSet[ip] {
					t.Fatalf("batch %d found %s, absent from clean run", batch, ip)
				}
			}
		})
	}
}

func TestBatchedKillAndResumeExactCoverage(t *testing.T) {
	// Stop a large-batch scan mid-flight (MaxRuntime ends the send phase
	// partway through, then cooldown drains in-flight responses), then
	// resume from its reported progress: the two runs together must probe
	// every target exactly once and reach full ground-truth coverage.
	// Progress resolves at batch granularity, so this exercises the
	// give-back of filled-but-unflushed elements.
	in, cfg, sink1 := testbed(t, 222, "80")
	cfg.BatchSize = 256
	cfg.Rate = 30000 // slow enough that the stop lands mid-scan
	cfg.MaxRuntime = 150 * time.Millisecond
	link := netsim.NewLink(in, 1<<16, 0)
	s1, err := New(cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	meta1, err := s1.Run(context.Background())
	if err != nil {
		t.Fatalf("interrupted run errored: %v", err)
	}
	link.Close()
	if meta1.PacketsSent == 0 || meta1.PacketsSent >= 16384 {
		t.Fatalf("PacketsSent = %d, want a mid-scan kill", meta1.PacketsSent)
	}

	in2, cfg2, sink2 := testbed(t, 222, "80")
	cfg2.Seed = cfg.Seed
	cfg2.BatchSize = 256
	cfg2.Resume = resumeFrom(s1, meta1.ThreadProgress)
	link2 := netsim.NewLink(in2, 1<<16, 0)
	defer link2.Close()
	s2, err := New(cfg2, link2)
	if err != nil {
		t.Fatal(err)
	}
	meta2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if total := meta1.PacketsSent + meta2.PacketsSent; total != 16384 {
		t.Errorf("combined probes %d (=%d+%d), want exactly 16384",
			total, meta1.PacketsSent, meta2.PacketsSent)
	}
	union := uniqueSuccessSet(sink1.all())
	for ip := range uniqueSuccessSet(sink2.all()) {
		union[ip] = true
	}
	if want := expectedHits(in, []uint16{80}, cfg.OptionLayout); len(union) != want {
		t.Errorf("union of runs found %d services, ground truth %d", len(union), want)
	}
}
