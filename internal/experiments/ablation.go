package experiments

import (
	"context"
	"io"
	"time"

	"zmapgo/internal/core"
	"zmapgo/internal/dedup"
	"zmapgo/internal/netsim"
	"zmapgo/internal/output"
	"zmapgo/internal/target"
)

// DedupAblationRow is one deduplicator's engine-level result.
type DedupAblationRow struct {
	Design      string
	UniqueSucc  uint64
	Duplicates  uint64
	MemoryBytes uint64
}

// flowLog is a Results writer that keeps every row, in the order the
// engine classified them.
type flowLog struct{ flows []output.Record }

func (l *flowLog) Write(r output.Record) error { l.flows = append(l.flows, r); return nil }
func (l *flowLog) Close() error                { return nil }

// DedupAblation puts the §4.1 design choice behind the engine: one
// single-port scan (with blowback enabled and double probing, so
// duplicates actually occur) runs with dedup off, and every valid
// response it classified is replayed, in order, through the legacy full
// bitmap and through the modern sliding window. Both must report
// identical unique successes — the designs trade memory, not
// correctness, on single-port scans; only the window extends to
// multiport.
func DedupAblation(w io.Writer, prefixBits int, seed uint64) []DedupAblationRow {
	header(w, "Ablation: dedup design", "bitmap vs sliding window through the engine (§4.1)")
	if prefixBits < 8 || prefixBits > 24 {
		prefixBits = 14
	}
	simCfg := netsim.DefaultConfig(seed)
	simCfg.ProbeLoss, simCfg.ResponseLoss, simCfg.PathBadFraction = 0, 0, 0
	in := netsim.New(simCfg)

	cons := target.NewConstraint(false)
	cons.Allow(0x0A000000, 32-prefixBits)
	ports, _ := target.ParsePorts("80")
	link := netsim.NewLink(in, 1<<17, 0)
	defer link.Close()
	var responses flowLog
	s, err := core.New(core.Config{
		Constraint:      cons,
		Ports:           ports,
		Seed:            int64(seed) + 1,
		Threads:         4,
		ProbesPerTarget: 2, // guarantee duplicates
		Cooldown:        400 * time.Millisecond,
		SourceIP:        0xC0000201,
		DedupWindow:     -1,
		Results:         &responses,
	}, link)
	if err != nil {
		panic(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		panic(err)
	}

	replay := func(d dedup.Deduper, name string) DedupAblationRow {
		row := DedupAblationRow{Design: name}
		for _, r := range responses.flows {
			if d.Seen(r.IP, r.Sport) {
				row.Duplicates++
			} else if r.Success {
				row.UniqueSucc++
			}
		}
		row.MemoryBytes = d.MemoryBytes()
		return row
	}
	rows := []DedupAblationRow{
		replay(dedup.NewBitmap(), "paged-bitmap (2013)"),
		replay(dedup.NewWindow(dedup.DefaultWindowSize), "sliding-window (modern)"),
	}
	printf(w, "%-26s %10s %10s %14s\n", "design", "unique", "dups", "memory-bytes")
	for _, r := range rows {
		printf(w, "%-26s %10d %10d %14d\n", r.Design, r.UniqueSucc, r.Duplicates, r.MemoryBytes)
	}
	printf(w, "identical results by design; the window trades the bitmap's guarantee for multiport reach and bounded memory\n")
	return rows
}
