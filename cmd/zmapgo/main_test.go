package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"zmapgo/internal/trace"
	"zmapgo/zmap"
)

// run the CLI end-to-end against the simulator, capturing files.
func TestCLIScanToFiles(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.csv")
	meta := filepath.Join(dir, "meta.json")
	status := filepath.Join(dir, "status.csv")
	code := run([]string{
		"-r", "10.0.0.0/20",
		"-p", "80,443",
		"--seed", "5",
		"--sim-lossless",
		"--sim-time-scale", "0",
		"--cooldown-time", "200ms",
		"-O", "csv",
		"-o", out,
		"--metadata-file", meta,
		"--status-updates-file", status,
		"-T", "2",
	})
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	results, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(results), "saddr,sport,") {
		t.Errorf("csv header missing: %q", string(results[:40]))
	}
	if lines := strings.Count(string(results), "\n"); lines < 10 {
		t.Errorf("only %d result lines", lines)
	}
	metadata, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"tool": "zmapgo"`, `"ports": "80,443"`, `"cyclic_group_prime"`} {
		if !strings.Contains(string(metadata), want) {
			t.Errorf("metadata missing %s", want)
		}
	}
}

func TestCLIBlocklistFile(t *testing.T) {
	code := run([]string{
		"-r", "10.0.0.0/24",
		"-b", "../../conf/blocklist.conf", // blocks 10/8 entirely
		"-p", "80",
		"--sim-time-scale", "0",
		"--cooldown-time", "10ms",
		"-o", os.DevNull,
	})
	// All of 10/8 is blocklisted, so the scan has no targets and must
	// fail with a clear error.
	if code == 0 {
		t.Error("scan of fully-blocklisted range should fail")
	}
}

func TestCLIBadFlags(t *testing.T) {
	cases := [][]string{
		{"-p", "99999"},
		{"-r", "nonsense"},
		{"-M", "bogus"},
		{"--probe-tcp-options", "bogus"},
		{"-b", "/nonexistent/blocklist"},
		{"-o", "/nonexistent-dir/file"},
	}
	for _, args := range cases {
		args = append(args, "--sim-time-scale", "0", "--cooldown-time", "1ms")
		if code := run(args); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
	}
}

func TestCLISynAckScanModule(t *testing.T) {
	code := run([]string{
		"-r", "10.0.0.0/22",
		"-p", "80",
		"-M", "tcp_synackscan",
		"--seed", "5",
		"--sim-lossless",
		"--sim-time-scale", "0",
		"--cooldown-time", "100ms",
		"-o", os.DevNull,
	})
	if code != 0 {
		t.Fatalf("synackscan exit code %d", code)
	}
}

func TestCLISchemaFlag(t *testing.T) {
	// --schema prints the record schema and exits 0 without scanning.
	if code := run([]string{"--schema"}); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestCLIOptOutFile(t *testing.T) {
	dir := t.TempDir()
	optFile := filepath.Join(dir, "optouts.conf")
	// A recent request covering half the range, plus an ancient one that
	// must expire and leave its prefix scannable.
	content := "10.0.8.0/21 added=2099-01-01 future-proof request\n" +
		"10.0.0.0/21 added=2001-01-01 long-expired request\n"
	if err := os.WriteFile(optFile, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.txt")
	code := run([]string{
		"-r", "10.0.0.0/20",
		"-p", "80",
		"--seed", "5",
		"--opt-out-file", optFile,
		"--sim-lossless",
		"--sim-time-scale", "0",
		"--cooldown-time", "100ms",
		"-o", out,
	})
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// 10.0.8.0-10.0.15.255 is opted out; 10.0.0.0/21 is scannable again.
	sawLow := false
	for _, addr := range strings.Fields(string(data)) {
		if strings.HasPrefix(addr, "10.0.8.") || strings.HasPrefix(addr, "10.0.12.") {
			t.Fatalf("opted-out address %s probed", addr)
		}
		if strings.HasPrefix(addr, "10.0.0.") || strings.HasPrefix(addr, "10.0.1.") ||
			strings.HasPrefix(addr, "10.0.2.") || strings.HasPrefix(addr, "10.0.3.") {
			sawLow = true
		}
	}
	if !sawLow {
		t.Error("expired opt-out range yielded no results; expiry not applied")
	}
}

func TestCLIStateFileResume(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "scan.ckpt")
	out1 := filepath.Join(dir, "half1.txt")
	out2 := filepath.Join(dir, "half2.txt")
	common := []string{
		"-r", "10.0.0.0/20", "-p", "80", "--seed", "9", "-T", "2",
		"--sim-lossless", "--sim-time-scale", "0", "--cooldown-time", "100ms",
	}
	// First half: cap at 2000 targets, save state.
	args := append(append([]string{}, common...),
		"--max-targets", "2000", "--checkpoint", state, "-o", out1)
	if code := run(args); code != 0 {
		t.Fatalf("first half exit %d", code)
	}
	// Second half: resume from state.
	args = append(append([]string{}, common...),
		"--resume-from", state, "-o", out2)
	if code := run(args); code != 0 {
		t.Fatalf("resume exit %d", code)
	}
	a, _ := os.ReadFile(out1)
	b, _ := os.ReadFile(out2)
	seen := map[string]bool{}
	for _, addr := range strings.Fields(string(a)) {
		seen[addr] = true
	}
	for _, addr := range strings.Fields(string(b)) {
		if seen[addr] {
			t.Fatalf("%s found by both halves", addr)
		}
	}
	// Resuming with mismatched flags must be rejected.
	bad := append(append([]string{}, common...), "--resume-from", state, "-T", "3", "-o", os.DevNull)
	if code := run(bad); code == 0 {
		t.Error("resume with mismatched thread count accepted")
	}
}

func TestCLIFaultInjectionRetriesTransparently(t *testing.T) {
	// With every probe's first send attempt failing, retries must make
	// the scan complete normally and the metadata must account for it.
	dir := t.TempDir()
	meta := filepath.Join(dir, "meta.json")
	code := run([]string{
		"-r", "10.0.0.0/22", "-p", "80", "--seed", "11",
		"--sim-lossless", "--sim-time-scale", "0", "--cooldown-time", "100ms",
		"--sim-fault-first-n", "1", "--send-backoff", "10us",
		"-o", os.DevNull, "--metadata-file", meta,
	})
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	metadata, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"send_errors": 1024`, `"retries": 1024`, `"send_drops": 0`, `"packets_sent": 1024`} {
		if !strings.Contains(string(metadata), want) {
			t.Errorf("metadata missing %s in %s", want, metadata)
		}
	}
}

func TestCLIFatalTransportSavesResumableState(t *testing.T) {
	// A transport that dies permanently must exit nonzero but still save
	// resumable state; a clean resume finishes the scan.
	dir := t.TempDir()
	state := filepath.Join(dir, "scan.ckpt")
	out1 := filepath.Join(dir, "half1.txt")
	out2 := filepath.Join(dir, "half2.txt")
	common := []string{
		"-r", "10.0.0.0/22", "-p", "80", "--seed", "12", "-T", "2",
		"--sim-lossless", "--sim-time-scale", "0", "--cooldown-time", "100ms",
	}
	args := append(append([]string{}, common...),
		"--sim-fault-fatal-after", "300", "--checkpoint", state, "-o", out1)
	if code := run(args); code != 3 {
		t.Fatalf("fatal-transport exit code %d, want 3", code)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("state file not written: %v", err)
	}
	args = append(append([]string{}, common...), "--resume-from", state, "-o", out2)
	if code := run(args); code != 0 {
		t.Fatalf("resume exit %d", code)
	}
	a, _ := os.ReadFile(out1)
	b, _ := os.ReadFile(out2)
	for _, addr := range strings.Fields(string(a)) {
		if strings.Contains(string(b), addr+"\n") {
			t.Fatalf("%s found by both halves", addr)
		}
	}
}

// captureStderr runs fn with os.Stderr pointed at a file and returns
// what it wrote there. run resolves os.Stderr when called, so this sees
// the CLI's messages and its logger's.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = old }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCLILostRowsAreSaidOutLoud(t *testing.T) {
	// A results stream that refuses every write (a full disk) must not
	// end in silence: results are best-effort, so the scan completes, but
	// without -v the errors still reach stderr and the summary line
	// carries the loss.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	var code int
	stderr := captureStderr(t, func() {
		code = run([]string{
			"-r", "10.0.0.0/22", "-p", "80", "--seed", "5",
			"--sim-lossless", "--sim-time-scale", "0", "--cooldown-time", "100ms",
			"-o", "/dev/full",
		})
	})
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (results are a best-effort stream)\n%s", code, stderr)
	}
	for _, want := range []string{"result write failed", "result rows lost"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q without -v:\n%s", want, stderr)
		}
	}
	m := regexp.MustCompile(`(\d+) unique successes .*, (\d+) rows lost\n`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("summary line does not report lost rows:\n%s", stderr)
	}
	if m[1] == "0" || m[1] != m[2] {
		t.Errorf("%s unique successes but %s rows lost; every write was refused", m[1], m[2])
	}
	if strings.Contains(stderr, "level=INFO") || strings.Contains(stderr, "level=DEBUG") {
		t.Errorf("non-error logs on stderr without -v:\n%s", stderr)
	}
}

func TestCLIVersionFlag(t *testing.T) {
	if code := run([]string{"--version"}); code != 0 {
		t.Fatalf("exit %d", code)
	}
}

func TestCLIMetricsAndJSONStatus(t *testing.T) {
	// The acceptance path: a sim scan with the metrics endpoint bound to
	// an ephemeral port and a JSON status stream. The endpoint must come
	// up (run prints its address) and the status file must carry latency
	// quantiles on every line.
	dir := t.TempDir()
	status := filepath.Join(dir, "status.jsonl")
	meta := filepath.Join(dir, "meta.json")
	code := run([]string{
		"-r", "10.0.0.0/20",
		"-p", "80",
		"--seed", "5",
		"--sim-lossless",
		"--sim-time-scale", "0",
		"--cooldown-time", "200ms",
		"--metrics-addr", "127.0.0.1:0",
		"--status-format", "json",
		"--status-updates-file", status,
		"--metadata-file", meta,
		"-o", os.DevNull,
		"-T", "2",
	})
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	data, err := os.ReadFile(status)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no status lines written")
	}
	for _, want := range []string{`"send_latency_p50_secs"`, `"send_latency_p90_secs"`, `"send_latency_p99_secs"`, `"thread_pps"`} {
		if !strings.Contains(lines[len(lines)-1], want) {
			t.Errorf("last status line missing %s: %s", want, lines[len(lines)-1])
		}
	}
	metadata, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{`"generation"`, `"send"`, `"cooldown"`, `"drain"`, `"done"`} {
		if !strings.Contains(string(metadata), `"phase": `+phase) {
			t.Errorf("metadata missing lifecycle phase %s", phase)
		}
	}
}

func TestCLIStatusCSVHeaderDefault(t *testing.T) {
	dir := t.TempDir()
	status := filepath.Join(dir, "status.csv")
	code := run([]string{
		"-r", "10.0.0.0/22",
		"-p", "80",
		"--seed", "5",
		"--sim-lossless",
		"--sim-time-scale", "0",
		"--cooldown-time", "150ms",
		"--status-updates-file", status,
		"-o", os.DevNull,
	})
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	data, err := os.ReadFile(status)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time_unix,sent,") {
		t.Errorf("status file does not start with the CSV header: %.60q", string(data))
	}
}

func TestCLIBadStatusFormat(t *testing.T) {
	if code := run([]string{"--status-format", "xml", "-o", os.DevNull}); code != 2 {
		t.Errorf("bad --status-format exit %d, want 2", code)
	}
}

func TestCLISigintCheckpointResume(t *testing.T) {
	// The crash-safety acceptance path: interrupt a live scan with a real
	// SIGINT, watch it exit 130 after a graceful drain and a final
	// checkpoint, then resume with --resume-from and verify the union of
	// both halves covers the target space exactly once.
	dir := t.TempDir()
	ck := filepath.Join(dir, "scan.ckpt")
	out1 := filepath.Join(dir, "half1.txt")
	out2 := filepath.Join(dir, "half2.txt")
	ref := filepath.Join(dir, "ref.txt")
	meta1 := filepath.Join(dir, "meta1.json")
	meta2 := filepath.Join(dir, "meta2.json")
	common := []string{
		"-r", "10.0.0.0/20", "-p", "80", "-T", "2",
		"--sim-lossless", "--sim-time-scale", "0", "--cooldown-time", "100ms",
	}
	// First run: rate-limited so there is time to interrupt mid-send.
	args := append(append([]string{}, common...),
		"--seed", "21", "--rate", "2000",
		"--checkpoint", ck, "--checkpoint-interval", "20ms",
		"-o", out1, "--metadata-file", meta1)
	codeCh := make(chan int, 1)
	go func() { codeCh <- run(args) }()
	// A periodic checkpoint on disk proves the scan is mid-send and the
	// signal handler is installed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ck); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	var code int
	select {
	case code = <-codeCh:
	case <-time.After(30 * time.Second):
		t.Fatal("interrupted scan did not exit")
	}
	if code != 130 {
		t.Fatalf("interrupted exit code %d, want 130", code)
	}
	m1, err := os.ReadFile(meta1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"interrupted": true`, `"runs": 1`} {
		if !strings.Contains(string(m1), want) {
			t.Errorf("first-run metadata missing %s", want)
		}
	}

	// Resume. No --seed: zero is adopted from the checkpoint.
	args = append(append([]string{}, common...),
		"--resume-from", ck, "--checkpoint", ck,
		"-o", out2, "--metadata-file", meta2)
	if code := run(args); code != 0 {
		t.Fatalf("resume exit %d", code)
	}
	m2, err := os.ReadFile(meta2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"interrupted": false`, `"runs": 2`, `"seed": 21`} {
		if !strings.Contains(string(m2), want) {
			t.Errorf("resume metadata missing %s", want)
		}
	}

	// Reference: the same scan, uninterrupted, on a fresh simulator.
	args = append(append([]string{}, common...), "--seed", "21", "-o", ref)
	if code := run(args); code != 0 {
		t.Fatalf("reference exit %d", code)
	}
	union := map[string]int{}
	for _, f := range []string{out1, out2} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range strings.Fields(string(data)) {
			union[addr]++
		}
	}
	for addr, n := range union {
		if n > 1 {
			t.Errorf("%s reported by both halves (%d times)", addr, n)
		}
	}
	refData, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	refAddrs := strings.Fields(string(refData))
	if len(union) != len(refAddrs) {
		t.Errorf("union of halves has %d addresses, uninterrupted scan found %d", len(union), len(refAddrs))
	}
	for _, addr := range refAddrs {
		if union[addr] == 0 {
			t.Errorf("%s found by uninterrupted scan but missed across the two halves", addr)
		}
	}
}

func TestCLIResumeFromMismatchedConfigFails(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "scan.ckpt")
	common := []string{
		"-r", "10.0.0.0/22", "-p", "80", "--seed", "31",
		"--sim-lossless", "--sim-time-scale", "0", "--cooldown-time", "50ms",
	}
	args := append(append([]string{}, common...), "--checkpoint", ck, "-o", os.DevNull)
	if code := run(args); code != 0 {
		t.Fatalf("seed run exit %d", code)
	}
	// Different port set: the fingerprint must reject the resume.
	bad := []string{
		"-r", "10.0.0.0/22", "-p", "443", "--seed", "31",
		"--sim-lossless", "--sim-time-scale", "0", "--cooldown-time", "50ms",
		"--resume-from", ck, "-o", os.DevNull,
	}
	if code := run(bad); code == 0 {
		t.Error("resume with mismatched ports accepted")
	}
}

func TestCLIRecvFaultFlags(t *testing.T) {
	// Aggressive receive faults through the CLI: the scan must complete,
	// report no error, and account for rejected frames per class.
	dir := t.TempDir()
	meta := filepath.Join(dir, "meta.json")
	code := run([]string{
		"-r", "10.0.0.0/20", "-p", "80", "--seed", "41",
		"--sim-lossless", "--sim-time-scale", "0", "--cooldown-time", "300ms",
		"--sim-recv-fault-truncate", "0.2",
		"--sim-recv-fault-corrupt", "0.2",
		"--sim-recv-fault-dup", "0.2",
		"--sim-recv-fault-spoof", "0.2",
		"--sim-recv-fault-seed", "41",
		"-o", os.DevNull, "--metadata-file", meta,
	})
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	metadata, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(metadata, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"recv_truncated", "recv_checksum_fail", "recv_invalid", "duplicate_responses"} {
		n, ok := doc[key].(float64)
		if !ok || n == 0 {
			t.Errorf("metadata %s = %v, want nonzero", key, doc[key])
		}
	}
}

// TestCLIKillResultLossBound is the flush-bound acceptance test: SIGKILL
// a scan mid-flight — no graceful drain, no deferred flushes — and
// verify the output file still holds at least the ResultsWritten count
// recorded in the last checkpoint. The engine flushes result writers
// inside the same critical section that captures the count, so the
// bound holds at any kill point; at most one checkpoint interval of
// results is lost.
func TestCLIKillResultLossBound(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "zmapgo-under-test")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building CLI: %v\n%s", err, out)
	}

	ck := filepath.Join(dir, "scan.ckpt")
	results := filepath.Join(dir, "results.csv")
	cmd := exec.Command(bin,
		"-r", "10.0.0.0/16", "-p", "80", "--seed", "9",
		"--sim-lossless", "--sim-time-scale", "0",
		"--rate", "20000", "--cooldown-time", "1s",
		"--checkpoint", ck, "--checkpoint-interval", "25ms",
		"-O", "csv", "-o", results)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until a checkpoint proves results have been durably flushed.
	deadline := time.Now().Add(20 * time.Second)
	for {
		snap, err := zmap.LoadCheckpoint(ck)
		if err == nil && snap.ResultsWritten > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint with flushed results appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// SIGKILL: the process gets no chance to flush or checkpoint again.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Checkpoint writes are atomic (tmp + rename), so whatever snapshot
	// is on disk was completed — and its flush preceded it.
	snap, err := zmap.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ResultsWritten == 0 {
		t.Fatal("final on-disk checkpoint recorded zero flushed results")
	}
	data, err := os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	// Count complete lines only: the kill can truncate the final row.
	rows := uint64(strings.Count(string(data), "\n"))
	if rows == 0 || !strings.HasPrefix(string(data), "saddr,") {
		t.Fatalf("output file lacks the CSV header: %q", string(data[:min(len(data), 60)]))
	}
	rows-- // header
	if rows < snap.ResultsWritten {
		t.Errorf("output holds %d rows, checkpoint promised at least %d", rows, snap.ResultsWritten)
	}
}

// TestCLIHealthFlags drives the scan-health surface end-to-end through
// the CLI: quarantine flags, the simulated dark prefix, and the
// adaptive-cooldown bounds all land in the metadata document.
func TestCLIHealthFlags(t *testing.T) {
	dir := t.TempDir()
	meta := filepath.Join(dir, "meta.json")
	code := run([]string{
		"-r", "10.0.0.0/15", "-p", "80", "--seed", "77", "-T", "4",
		"--sim-lossless", "--sim-time-scale", "0",
		"--rate", "150000",
		"--quarantine-threshold", "0.15", "--health-interval", "20ms",
		"--sim-dark-prefix", "10.1.0.0/16", "--sim-dark-after", "50000",
		"--cooldown-time", "100ms", "--cooldown-max", "300ms",
		"--metadata-file", meta,
	})
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	data, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	quar, _ := m["quarantined_prefixes"].([]any)
	if len(quar) != 1 {
		t.Fatalf("quarantined_prefixes = %v, want one entry", m["quarantined_prefixes"])
	}
	if q, _ := quar[0].(map[string]any); q["prefix"] != "10.1.0.0/16" {
		t.Errorf("quarantined %v, want 10.1.0.0/16", quar[0])
	}
	if skipped, _ := m["quarantine_skipped_probes"].(float64); skipped <= 0 {
		t.Error("metadata records no quarantine-skipped probes")
	}
	if maxSecs, _ := m["cooldown_max_secs"].(float64); maxSecs != 0.3 {
		t.Errorf("cooldown_max_secs = %v, want 0.3", m["cooldown_max_secs"])
	}
	if actual, _ := m["cooldown_actual_secs"].(float64); actual <= 0 || actual > 0.3001 {
		t.Errorf("cooldown_actual_secs = %v, want within (0, 0.3]", m["cooldown_actual_secs"])
	}
}

func TestCLIHealthFlagErrors(t *testing.T) {
	cases := [][]string{
		{"--adaptive-rate"},                   // requires --rate
		{"--sim-dark-prefix", "not-an-ip/16"}, // unparseable
		{"--sim-dark-prefix", "10.1.0.0"},     // missing /16
		{"--sim-dark-prefix", "10.1.0.0/16"},  // dark-after missing
	}
	for _, args := range cases {
		args = append(args, "-r", "10.0.0.0/28", "-p", "80",
			"--sim-time-scale", "0", "--cooldown-time", "1ms")
		if code := run(args); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
	}
}

func TestParseDarkPrefix(t *testing.T) {
	cases := []struct {
		in     string
		ip     uint32
		bits   int
		wantOK bool
	}{
		{"10.0.0.0/8", 0x0A000000, 8, true},
		{"10.1.0.0/16", 0x0A010000, 16, true},
		{"10.1.2.0/24", 0x0A010200, 24, true},
		{"192.168.64.0/18", 0xC0A84000, 18, true},
		{"10.1.0.0", 0, 0, false},      // no length
		{"10.1.0.0/7", 0, 0, false},    // wider than /8
		{"10.1.2.128/25", 0, 0, false}, // narrower than /24
		{"10.1.0.0/0", 0, 0, false},    // zero length
		{"10.1.0.0/abc", 0, 0, false},  // non-numeric length
		{"not-an-ip/16", 0, 0, false},  // unparseable address
		{"10.1.2.3/16", 0, 0, false},   // host bits set below /16
		{"10.1.0.1/24", 0, 0, false},   // host bits set below /24
		{"", 0, 0, false},
	}
	for _, c := range cases {
		ip, bits, err := parseDarkPrefix(c.in)
		if c.wantOK != (err == nil) {
			t.Errorf("parseDarkPrefix(%q) err = %v, want ok=%v", c.in, err, c.wantOK)
			continue
		}
		if err == nil && (ip != c.ip || bits != c.bits) {
			t.Errorf("parseDarkPrefix(%q) = %#x/%d, want %#x/%d", c.in, ip, bits, c.ip, c.bits)
		}
	}
}

func TestCLIDarkPrefixWidths(t *testing.T) {
	// A /24 dark prefix flows through the congestion model end to end:
	// the whole /24 goes dark but its sibling /24s keep answering.
	dir := t.TempDir()
	meta := filepath.Join(dir, "meta.json")
	code := run([]string{
		"-r", "10.1.2.0/23", "-p", "80", "--seed", "9",
		"--sim-lossless", "--sim-time-scale", "0",
		"--rate", "100000",
		"--sim-dark-prefix", "10.1.2.0/24", "--sim-dark-after", "1",
		"--cooldown-time", "50ms", "--cooldown-max", "100ms",
		"--metadata-file", meta, "-o", os.DevNull,
	})
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	data, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	// The scan still finds services outside the darkened /24.
	if recv, _ := m["unique_successes"].(float64); recv <= 0 {
		t.Errorf("no successes despite live sibling /24: %v", m["unique_successes"])
	}
}

func TestCLIScenarioFlag(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(good, []byte(`{
		"name": "cli-smoke", "seed": 3,
		"events": [{"type": "asym_loss", "at_secs": 0, "forward_loss": 0.05}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code := run([]string{
		"-r", "10.0.0.0/24", "-p", "80", "--seed", "5",
		"--sim-time-scale", "0", "--cooldown-time", "20ms",
		"--sim-scenario", good, "-o", os.DevNull,
	})
	if code != 0 {
		t.Fatalf("valid scenario: exit code %d", code)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"events":[{"type":"tsunami"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bad, filepath.Join(dir, "missing.json")} {
		code := run([]string{
			"-r", "10.0.0.0/28", "-p", "80", "--sim-time-scale", "0",
			"--cooldown-time", "1ms", "--sim-scenario", path, "-o", os.DevNull,
		})
		if code == 0 {
			t.Errorf("scenario %s: exit 0, want failure", path)
		}
	}
}

// TestCLISigusr1DumpsTraceMidScan: SIGUSR1 during a live scan writes a
// parseable flight-recorder dump without stopping the scan, and the
// ring's retained window has no holes — every sequence number between
// the oldest and newest retained event of each shard is present. Run
// under -race this also proves the seqlock snapshot is clean against
// live writers.
func TestCLISigusr1DumpsTraceMidScan(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.jsonl")

	// The cooldown keeps Run alive well past the signal; sampling every
	// target plus the default ring forces sender shards to wrap, so the
	// contiguity check below exercises the retained window, not a ring
	// that never filled.
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-r", "10.0.0.0/20",
			"-p", "80,443",
			"--seed", "5",
			"--sim-lossless",
			"--sim-time-scale", "0",
			"--cooldown-time", "700ms",
			"--trace-file", traceOut,
			"--trace-sample-every", "1",
			"-o", os.DevNull,
			"-T", "2",
		})
	}()
	time.Sleep(250 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	// The dump is written asynchronously by the signal goroutine; poll
	// briefly rather than racing it.
	var midScan []byte
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(traceOut); err == nil && len(b) > 0 {
			midScan = b
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(midScan) == 0 {
		t.Fatal("SIGUSR1 produced no trace dump while the scan was live")
	}
	snap, err := trace.ReadJSONL(bytes.NewReader(midScan))
	if err != nil {
		t.Fatalf("mid-scan dump does not parse: %v", err)
	}
	if len(snap.Events) == 0 {
		t.Fatal("mid-scan dump holds no ring events")
	}
	// No data loss inside the retained window: per shard, the snapshot
	// holds every seq between its oldest and newest retained event.
	bySeq := map[int][]uint64{}
	for _, e := range snap.Events {
		bySeq[e.Shard] = append(bySeq[e.Shard], e.Seq)
	}
	for shard, seqs := range bySeq {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		span := seqs[len(seqs)-1] - seqs[0] + 1
		if uint64(len(seqs)) != span {
			t.Errorf("shard %d: %d events spanning %d seqs — holes in the retained window",
				shard, len(seqs), span)
		}
	}

	if code := <-done; code != 0 {
		t.Fatalf("scan exit code %d", code)
	}
	// The scan-end dump (same --trace-file) supersedes the mid-scan one
	// and must parse too.
	final, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	endSnap, err := trace.ReadJSONL(bytes.NewReader(final))
	if err != nil {
		t.Fatalf("scan-end dump does not parse: %v", err)
	}
	if len(endSnap.Events) < len(snap.Events) {
		t.Errorf("scan-end dump (%d events) smaller than mid-scan dump (%d)",
			len(endSnap.Events), len(snap.Events))
	}
}
