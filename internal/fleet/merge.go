package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"zmapgo/internal/output"
	"zmapgo/internal/target"
)

// MergeStats accounts for the exactly-once merge: how many run files
// contributed, how many rows they held, and how many were duplicates
// collapsed away. Duplicates are expected after crash recovery — a
// response received after the last checkpoint but before the crash is
// re-probed by the respawned worker, so the union of run files is
// at-least-once; the merge's dedup restores exactly-once. TornRows
// counts partial trailing lines cut short by a crash mid-write; the
// torn row's target is re-probed on resume (it lies past the last
// checkpoint by construction), so dropping the fragment loses nothing.
type MergeStats struct {
	Files      int `json:"files"`
	RowsRead   int `json:"rows_read"`
	UniqueRows int `json:"unique_rows"`
	Duplicates int `json:"duplicate_rows"`
	TornRows   int `json:"torn_rows,omitempty"`
}

// mergeKey identifies a result row for deduplication: the responding
// (address, port) pair, the same identity the engine's own dedup uses.
type mergeKey struct {
	ip   uint32
	port uint16
}

// mergeRow is one surviving row with its sort identity. The merge only
// ever needs a row's key: every run file was written by the engine's one
// row encoder, so a surviving line is emitted exactly as it was read.
type mergeRow struct {
	key  mergeKey
	line string
}

// RunFiles lists every per-epoch output file of every shard under the
// fleet directory, in (shard, epoch) order — the deterministic
// first-seen order the merge dedups in.
func RunFiles(fleetDir string, workers int, format string) ([]string, error) {
	ext := outputExt(format)
	var files []string
	for s := 0; s < workers; s++ {
		matches, err := filepath.Glob(filepath.Join(ShardDir(fleetDir, s), "out.run-*."+ext))
		if err != nil {
			return nil, fmt.Errorf("fleet: list run files: %w", err)
		}
		sort.Strings(matches) // epoch is zero-padded, lexical == numeric
		files = append(files, matches...)
	}
	return files, nil
}

// MergeOutputs unions per-shard run files into one scan-level result
// stream: rows are deduplicated by (address, port) keeping the first
// occurrence in file order, then emitted sorted by numeric address and
// port. For the text format the merged stream is therefore byte-equal
// to a sorted-unique single-process reference scan of the same space.
func MergeOutputs(format string, files []string, w io.Writer) (MergeStats, error) {
	var stats MergeStats
	seen := make(map[mergeKey]int)
	var rows []mergeRow

	keep := func(row mergeRow) {
		stats.RowsRead++
		if _, dup := seen[row.key]; dup {
			stats.Duplicates++
			return
		}
		seen[row.key] = len(rows)
		rows = append(rows, row)
	}

	parse := parseTextRow
	switch format {
	case "csv":
		parse = parseCSVRow
	case "jsonl", "json":
		parse = parseJSONLRow
	}

	for _, path := range files {
		torn, err := mergeFile(path, parse, keep)
		if err != nil {
			return stats, fmt.Errorf("fleet: merge %s: %w", path, err)
		}
		stats.TornRows += torn
		stats.Files++
	}

	sort.Slice(rows, func(i, j int) bool {
		if rows[i].key.ip != rows[j].key.ip {
			return rows[i].key.ip < rows[j].key.ip
		}
		return rows[i].key.port < rows[j].key.port
	})
	stats.UniqueRows = len(rows)

	bw := bufio.NewWriter(w)
	if format == "csv" {
		bw.WriteString(output.CSVHeader + "\n")
	}
	for _, r := range rows {
		bw.WriteString(r.line)
		bw.WriteByte('\n')
	}
	return stats, bw.Flush() // the first write error, if any, sticks
}

// mergeFile reads one run file line by line. A parse failure on the
// final line is a torn tail from a crashed writer and is dropped (the
// count is returned); a failure anywhere else is real corruption.
func mergeFile(path string, parse func(line string) (mergeRow, bool, error), keep func(mergeRow)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var badErr error
	badLine := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if badErr != nil {
			// The bad line was not the last one: hard error.
			return 0, fmt.Errorf("row %q: %w", badLine, badErr)
		}
		row, skip, err := parse(line)
		if err != nil {
			badErr, badLine = err, line
			continue
		}
		if !skip {
			keep(row)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if badErr != nil {
		return 1, nil // torn tail: dropped, not fatal
	}
	return 0, nil
}

// parsePort reads a decimal port.
func parsePort(s string) (uint16, error) {
	p, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bad port %q", s)
	}
	return uint16(p), nil
}

// parseTextRow reads a text-format row: "a.b.c.d" or "a.b.c.d:port".
func parseTextRow(line string) (mergeRow, bool, error) {
	addr, portStr, hasPort := strings.Cut(line, ":")
	ip, err := target.ParseIPv4(addr)
	if err != nil {
		return mergeRow{}, false, err
	}
	var port uint16
	if hasPort {
		if port, err = parsePort(portStr); err != nil {
			return mergeRow{}, false, err
		}
	}
	return mergeRow{key: mergeKey{ip: ip, port: port}, line: line}, false, nil
}

// parseCSVRow reads one schema row's key; per-file header rows are
// skipped. Rows are read line-wise (the schema has no quoted newlines),
// which is what lets a torn tail be detected per line: saddr and sport
// lead the row unquoted, and a complete row has all its separators.
func parseCSVRow(line string) (mergeRow, bool, error) {
	if line == output.CSVHeader {
		return mergeRow{}, true, nil
	}
	if got, want := strings.Count(line, ","), strings.Count(output.CSVHeader, ","); got < want {
		return mergeRow{}, false, fmt.Errorf("csv row with %d fields, want %d", got+1, want+1)
	}
	saddr, rest, _ := strings.Cut(line, ",")
	sport, _, _ := strings.Cut(rest, ",")
	ip, err := target.ParseIPv4(saddr)
	if err != nil {
		return mergeRow{}, false, fmt.Errorf("csv saddr %q: %w", saddr, err)
	}
	port, err := parsePort(sport)
	if err != nil {
		return mergeRow{}, false, fmt.Errorf("csv sport: %w", err)
	}
	return mergeRow{key: mergeKey{ip: ip, port: port}, line: line}, false, nil
}

// parseJSONLRow reads one JSON Lines row's key. Unmarshal checks the
// whole line's syntax first, so a torn object is an error here.
func parseJSONLRow(line string) (mergeRow, bool, error) {
	var key struct {
		Saddr string `json:"saddr"`
		Sport uint16 `json:"sport"`
	}
	if err := json.Unmarshal([]byte(line), &key); err != nil {
		return mergeRow{}, false, err
	}
	ip, err := target.ParseIPv4(key.Saddr)
	if err != nil {
		return mergeRow{}, false, fmt.Errorf("jsonl saddr %q: %w", key.Saddr, err)
	}
	return mergeRow{key: mergeKey{ip: ip, port: key.Sport}, line: line}, false, nil
}
