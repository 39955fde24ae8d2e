package fleetnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
	"zmapgo/internal/trace"
)

// journalSink collects the server's decision-journal entries.
type journalSink struct {
	mu      sync.Mutex
	entries []trace.JEntry
}

func (j *journalSink) add(e trace.JEntry) {
	j.mu.Lock()
	j.entries = append(j.entries, e)
	j.mu.Unlock()
}

func (j *journalSink) count(kind string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range j.entries {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func newTestServer(t *testing.T, token string) (*Server, *journalSink, string) {
	t.Helper()
	dir := t.TempDir()
	js := &journalSink{}
	srv := NewServer(ServerOptions{Token: token})
	err := srv.Start(fleet.PlaneInfo{
		Dir: dir, Workers: 2, Format: "text", FleetID: "net-test",
		LeaseTTL: time.Second, Journal: js.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, js, dir
}

// grantShard grants (shard 0, epoch) on the server exactly like the
// coordinator would, returning the spec and its fingerprint.
func grantShard(t *testing.T, srv *Server, dir string, epoch int) (*fleet.WorkerSpec, checkpoint.Fingerprint) {
	t.Helper()
	// The scan document is opaque to the plane: it must only come back
	// from the spec RPC as it went in.
	scan := json.RawMessage(`{"options":{"ranges":["10.9.0.0/28"],"seed":5},"sim":{"seed":1}}`)
	fp := checkpoint.Fingerprint{
		Seed: 5, Shards: 1, Threads: 1, ShardMode: "pizza", ProbeModule: "tcp_synscan",
		Ports: "80", ProbesPerTarget: 1, TargetsDigest: "d0928",
	}
	paths := fleet.PathsFor(dir, 0, epoch, "text")
	if err := os.MkdirAll(paths.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := &fleet.WorkerSpec{
		FleetID: "net-test", Shard: 0, Shards: 1, Epoch: epoch,
		Scan: scan, Paths: paths, LeaseTTL: time.Second,
	}
	now := time.Now()
	lease := &checkpoint.Lease{
		FleetID: "net-test", ShardIndex: 0, Epoch: epoch,
		WorkerID: spec.WorkerID(), State: checkpoint.LeaseGranted,
		GrantedAt: now, RenewedAt: now, TTLSecs: 5, Fingerprint: fp,
	}
	if err := srv.Grant(spec, lease); err != nil {
		t.Fatal(err)
	}
	return spec, fp
}

// postChunk uploads one result chunk and returns the HTTP status plus
// the server's authoritative size.
func postChunk(t *testing.T, base string, epoch int, offset int64, chunk []byte, sha string) (int, int64) {
	t.Helper()
	url := fmt.Sprintf("%s%s?shard=0&epoch=%d&offset=%d", base, pathResult, epoch, offset)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	if sha == "" {
		sum := sha256.Sum256(chunk)
		sha = hex.EncodeToString(sum[:])
	}
	req.Header.Set(headerChunkSHA, sha)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr resultResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	return resp.StatusCode, rr.Size
}

// TestServerResultIdempotentAppend: the append-iff-offset==size rule.
// A duplicated chunk acks without re-appending; a chunk past the
// durable size is refused with the authoritative size (and journaled)
// so the client rewinds; a corrupted body never lands.
func TestServerResultIdempotentAppend(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	spec, _ := grantShard(t, srv, dir, 1)

	chunk := []byte("10.9.0.1,80,synack\n")
	if code, size := postChunk(t, srv.URL(), 1, 0, chunk, ""); code != 200 || size != int64(len(chunk)) {
		t.Fatalf("first append: code=%d size=%d", code, size)
	}
	// The chaos proxy's dup fault: identical chunk, identical offset.
	if code, size := postChunk(t, srv.URL(), 1, 0, chunk, ""); code != 200 || size != int64(len(chunk)) {
		t.Fatalf("duplicate append: code=%d size=%d", code, size)
	}
	data, err := os.ReadFile(spec.Paths.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, chunk) {
		t.Fatalf("duplicate chunk double-applied: run file holds %q", data)
	}

	// Gap: a chunk arriving past the durable size means an earlier one
	// was lost; the server must refuse to leave a hole.
	if code, size := postChunk(t, srv.URL(), 1, 100, []byte("late\n"), ""); code != 200 || size != int64(len(chunk)) {
		t.Fatalf("gap chunk: code=%d size=%d", code, size)
	}
	if got := js.count(trace.JFleetNetGap); got != 1 {
		t.Fatalf("gap journaled %d times, want 1", got)
	}

	// Corruption: digest mismatch is rejected before touching the file.
	if code, _ := postChunk(t, srv.URL(), 1, int64(len(chunk)), []byte("junk\n"), strings.Repeat("0", 64)); code != http.StatusBadRequest {
		t.Fatalf("corrupted chunk accepted with code %d", code)
	}
	if data, _ := os.ReadFile(spec.Paths.Output); !bytes.Equal(data, chunk) {
		t.Fatalf("rejected chunks mutated the run file: %q", data)
	}
}

// TestServerFencesStaleEpoch: after a re-grant, every RPC carrying the
// old epoch is rejected with the fenced verdict — the late heartbeat or
// result upload of a partitioned worker can never be merged.
func TestServerFencesStaleEpoch(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	grantShard(t, srv, dir, 1)
	if code, size := postChunk(t, srv.URL(), 1, 0, []byte("epoch1-row\n"), ""); code != 200 || size == 0 {
		t.Fatalf("epoch-1 append before re-grant: code=%d", code)
	}
	grantShard(t, srv, dir, 2) // reclaim: epoch moves on

	// Stale result upload.
	if code, _ := postChunk(t, srv.URL(), 1, 10, []byte("stale-row\n"), ""); code != http.StatusConflict {
		t.Fatalf("stale-epoch result upload answered %d, want 409", code)
	}
	// Stale renewal, through the client so the fenced verdict's error
	// mapping is exercised too.
	c := newClient(srv.URL(), "", 0, 1, nil)
	if _, err := c.renewOnce(os.Getpid()); !errors.Is(err, checkpoint.ErrLeaseFenced) {
		t.Fatalf("stale renew error = %v, want ErrLeaseFenced", err)
	}
	// Stale commit.
	body, _ := json.Marshal(commitRequest{Shard: 0, Epoch: 1, Size: 0, SHA256: ""})
	resp, err := http.Post(srv.URL()+pathCommit, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale commit answered %d, want 409", resp.StatusCode)
	}
	if js.count(trace.JFleetNetFence) < 3 {
		t.Fatalf("only %d fence decisions journaled, want >=3", js.count(trace.JFleetNetFence))
	}
	// The current epoch still works.
	if code, _ := postChunk(t, srv.URL(), 2, 0, []byte("epoch2-row\n"), ""); code != 200 {
		t.Fatalf("current-epoch append answered %d", code)
	}
}

func putCheckpoint(t *testing.T, base string, epoch int, snap *checkpoint.Snapshot) int {
	t.Helper()
	snap.FormatVersion = checkpoint.FormatVersion
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s%s?shard=0&epoch=%d", base, pathCheckpoint, epoch)
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestServerCheckpointMonotonic: a delayed or duplicated checkpoint
// upload must never regress the durable snapshot a successor would
// resume from, and a checkpoint from a different scan never lands.
func TestServerCheckpointMonotonic(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	spec, fp := grantShard(t, srv, dir, 1)
	now := time.Now().UTC()

	fresh := &checkpoint.Snapshot{Tool: "zmapgo", WrittenAt: now, Phase: "send",
		Progress: []uint64{7}, Fingerprint: fp}
	if code := putCheckpoint(t, srv.URL(), 1, fresh); code != http.StatusNoContent {
		t.Fatalf("fresh checkpoint PUT: %d", code)
	}
	// The reordered duplicate of an older snapshot arrives late.
	stale := &checkpoint.Snapshot{Tool: "zmapgo", WrittenAt: now.Add(-time.Minute), Phase: "send",
		Progress: []uint64{3}, Fingerprint: fp}
	if code := putCheckpoint(t, srv.URL(), 1, stale); code != http.StatusConflict {
		t.Fatalf("stale checkpoint PUT: %d, want 409", code)
	}
	if got := js.count(trace.JFleetNetCkptRej); got != 1 {
		t.Fatalf("checkpoint rejection journaled %d times, want 1", got)
	}
	durable, err := checkpoint.Load(spec.Paths.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !durable.WrittenAt.Equal(now) || durable.Progress[0] != 7 {
		t.Fatalf("durable checkpoint regressed: %+v", durable)
	}

	// Foreign scan: fingerprint mismatch against the granted lease.
	foreignFP := fp
	foreignFP.Seed = fp.Seed + 1
	foreign := &checkpoint.Snapshot{Tool: "zmapgo", WrittenAt: now.Add(time.Minute), Phase: "send",
		Progress: []uint64{9}, Fingerprint: foreignFP}
	if code := putCheckpoint(t, srv.URL(), 1, foreign); code != http.StatusBadRequest {
		t.Fatalf("foreign checkpoint PUT: %d, want 400", code)
	}
}

// TestServerCommitVerifiedAndIdempotent: commit only lands over a fully
// shipped, digest-matching run file, appears atomically, and retries
// are no-ops.
func TestServerCommitVerifiedAndIdempotent(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	spec, _ := grantShard(t, srv, dir, 1)
	rows := []byte("10.9.0.1,80\n10.9.0.2,80\n")
	if code, _ := postChunk(t, srv.URL(), 1, 0, rows, ""); code != 200 {
		t.Fatalf("upload: %d", code)
	}
	sum := sha256.Sum256(rows)
	meta := []byte(`{"shard":0}`)

	commit := func(size int64, sha string) int {
		body, _ := json.Marshal(commitRequest{Shard: 0, Epoch: 1, Size: size,
			SHA256: sha, Metadata: meta})
		resp, err := http.Post(srv.URL()+pathCommit, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// The client believes it shipped more than the server holds (lost
	// chunks): refused, nothing committed.
	if code := commit(int64(len(rows))+5, hex.EncodeToString(sum[:])); code != http.StatusConflict {
		t.Fatalf("short-upload commit: %d, want 409", code)
	}
	if _, err := os.Stat(spec.Paths.Metadata); err == nil {
		t.Fatal("refused commit still wrote a metadata record")
	}
	if code := commit(int64(len(rows)), hex.EncodeToString(sum[:])); code != http.StatusNoContent {
		t.Fatalf("commit: %d", code)
	}
	got, err := os.ReadFile(spec.Paths.Metadata)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, meta) {
		t.Fatalf("metadata %q", got)
	}
	// Retried commit (the chaos proxy's oneway fault): idempotent ack.
	if code := commit(int64(len(rows)), hex.EncodeToString(sum[:])); code != http.StatusNoContent {
		t.Fatalf("retried commit: %d", code)
	}
	if js.count(trace.JFleetNetCommit) != 1 {
		t.Fatalf("commit journaled %d times, want 1", js.count(trace.JFleetNetCommit))
	}
	// The done-mark rode along.
	l, err := checkpoint.LoadLease(spec.Paths.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if l.State != checkpoint.LeaseDone {
		t.Fatalf("lease state %q after commit", l.State)
	}
}

// TestClientRewindsOnGapVerdict: a client that believes it uploaded
// bytes the server never received (dropped mid-partition) adopts the
// server's authoritative size and re-sends — the spool and the run file
// converge byte-identically.
func TestClientRewindsOnGapVerdict(t *testing.T) {
	srv, js, dir := newTestServer(t, "")
	spec, _ := grantShard(t, srv, dir, 1)
	c := newClient(srv.URL(), "", 0, 1, nil)
	if err := c.adoptSpec(spec); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows := []byte("10.9.0.1,80\n10.9.0.2,80\n10.9.0.3,80\n")
	if err := os.WriteFile(c.spoolPath, rows, 0o644); err != nil {
		t.Fatal(err)
	}
	// Simulate a partition that ate the first upload after the client
	// counted it: the client's high-water mark is past the server's.
	c.uploaded = 12
	if err := c.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got, err := os.ReadFile(spec.Paths.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rows) {
		t.Fatalf("run file diverged after rewind: %q vs %q", got, rows)
	}
	if js.count(trace.JFleetNetGap) == 0 {
		t.Fatal("gap rewind left no journal entry")
	}
}

// TestServerRejectsBadToken: every RPC must carry the fleet token.
func TestServerRejectsBadToken(t *testing.T) {
	srv, _, dir := newTestServer(t, "s3cret")
	grantShard(t, srv, dir, 1)
	resp, err := http.Get(srv.URL() + pathSpec + "?shard=0&epoch=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless RPC answered %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL()+pathSpec+"?shard=0&epoch=1", nil)
	req.Header.Set(headerToken, "s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed RPC answered %d", resp.StatusCode)
	}
}
