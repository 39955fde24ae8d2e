// Package fleet implements the fault-tolerant multi-worker scan
// coordinator: one logical scan is split into N pizza shards (contiguous
// exponent ranges of the shared cyclic permutation, internal/shard), each
// shard is executed by a separate worker process, and the coordinator
// supervises the workers through heartbeat leases persisted next to each
// shard's checkpoint. A worker that crashes, is killed, or hangs past its
// lease TTL is reclaimed and respawned with bounded exponential backoff,
// resuming from its last durable checkpoint. Per-shard outputs are
// at-least-once across crashes; the merge stage (merge.go) dedups them
// back to exactly-once and unions metadata into a scan-level document.
//
// The package deliberately does not import the public zmap package (zmap
// imports it): the coordinator speaks to workers only through the
// filesystem (spec/lease/checkpoint/rate files) and POSIX signals, and
// the worker-side scan runner lives in zmap. Any binary that calls
// zmap.FleetWorkerMain at the top of main() can serve as a fleet worker,
// including test binaries.
package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// WorkerSpecEnv is the environment variable the coordinator sets on
// worker processes: the path to a WorkerSpec JSON document. A binary
// that finds it set at startup must run the assigned shard and exit (see
// zmap.FleetWorkerMain) instead of its normal entry point.
const WorkerSpecEnv = "ZMAPGO_FLEET_WORKER_SPEC"

// SpecFormatVersion identifies the worker spec schema.
const SpecFormatVersion = 2

// Worker exit codes, the coordinator's respawn policy keys off them:
// config and fingerprint failures are deterministic, so respawning would
// loop forever; crashes and fencings are circumstantial.
const (
	ExitOK          = 0 // shard completed, metadata written
	ExitConfig      = 2 // invalid spec or scan config: fatal, never respawn
	ExitCrash       = 3 // scan failed at runtime: respawn with backoff
	ExitFenced      = 4 // lease epoch moved on: another worker owns the shard
	ExitFingerprint = 5 // checkpoint fingerprint mismatch: fatal, never respawn
)

// outputExt maps an output format to the run-file extension.
func outputExt(format string) string {
	switch format {
	case "csv":
		return "csv"
	case "jsonl", "json":
		return "jsonl"
	default:
		return "txt"
	}
}

// WorkerPaths names every file a worker shares with its coordinator,
// all inside the shard's directory.
type WorkerPaths struct {
	// Dir is the shard directory (<fleet dir>/shard-<i>).
	Dir string `json:"dir"`
	// Spec is this document's own path (rewritten per epoch).
	Spec string `json:"spec"`
	// Lease is the heartbeat lease (checkpoint.Lease).
	Lease string `json:"lease"`
	// Checkpoint is the shard's durable scan snapshot.
	Checkpoint string `json:"checkpoint"`
	// Rate is the coordinator-written rate cap file (text, pps). The
	// worker polls it and folds the cap into its limiter at batch
	// boundaries, which is how a dead worker's budget share moves to
	// the survivors and moves back on recovery.
	Rate string `json:"rate"`
	// Output is this epoch's result file (out.run-<epoch>.<ext>). Each
	// grant writes a fresh file so a crash cannot torn-append; the merge
	// stage unions all run files and dedups.
	Output string `json:"output"`
	// Metadata is this epoch's end-of-scan summary, written atomically
	// on success — its existence is the worker's commit record.
	Metadata string `json:"metadata"`
}

// ShardDir returns the shard's directory under the fleet directory.
func ShardDir(fleetDir string, shard int) string {
	return filepath.Join(fleetDir, fmt.Sprintf("shard-%d", shard))
}

// PathsFor lays out the shared files for one shard and epoch.
func PathsFor(fleetDir string, shard, epoch int, format string) WorkerPaths {
	dir := ShardDir(fleetDir, shard)
	return WorkerPaths{
		Dir:        dir,
		Spec:       filepath.Join(dir, "spec.json"),
		Lease:      filepath.Join(dir, "lease.json"),
		Checkpoint: filepath.Join(dir, "scan.ckpt"),
		Rate:       filepath.Join(dir, "rate.pps"),
		Output:     filepath.Join(dir, fmt.Sprintf("out.run-%03d.%s", epoch, outputExt(format))),
		Metadata:   filepath.Join(dir, fmt.Sprintf("meta.run-%03d.json", epoch)),
	}
}

// WorkerSpec is the per-grant contract between coordinator and worker:
// which shard of which fleet, under which lease epoch, scanning what.
// The coordinator writes it before spawning; the worker loads it from
// the path in WorkerSpecEnv.
type WorkerSpec struct {
	FormatVersion int    `json:"format_version"`
	FleetID       string `json:"fleet_id"`
	Shard         int    `json:"shard"`
	Shards        int    `json:"shards"`

	// Epoch is the lease epoch this worker was granted. Renewals under
	// any other epoch are fenced (checkpoint.ErrLeaseFenced).
	Epoch int `json:"epoch"`

	// Scan is Config.Scan, carried and never decoded. It holds the rate
	// ceiling too — the full fleet budget; the live share arrives through
	// the rate file (Paths.Rate), so the coordinator can move it both
	// down and up as fleet membership changes.
	Scan json.RawMessage `json:"scan"`

	// Resume tells the worker to load Paths.Checkpoint and continue
	// from it (fingerprint-verified; mismatch exits ExitFingerprint).
	Resume bool `json:"resume,omitempty"`

	Paths WorkerPaths `json:"paths"`

	// LeaseTTL is the coordinator's reclaim horizon. A worker whose
	// renewals have failed for longer than this self-fences — aborts
	// with a final checkpoint and exits uncommitted — because the
	// coordinator must be presumed to have re-granted the shard.
	LeaseTTL time.Duration `json:"lease_ttl,omitempty"`

	CheckpointInterval time.Duration `json:"checkpoint_interval,omitempty"`
	HeartbeatInterval  time.Duration `json:"heartbeat_interval,omitempty"`
	RatePollInterval   time.Duration `json:"rate_poll_interval,omitempty"`
}

// WorkerID is the human-readable identity riding leases and journals.
func (w *WorkerSpec) WorkerID() string {
	return fmt.Sprintf("shard-%d.epoch-%d", w.Shard, w.Epoch)
}

// SaveWorkerSpec writes the spec document (plain write; the lease, not
// the spec, is the coordination point — the spec is immutable between
// the write and the spawn that consumes it).
func SaveWorkerSpec(path string, w *WorkerSpec) error {
	w.FormatVersion = SpecFormatVersion
	data, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encode worker spec: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("fleet: write worker spec: %w", err)
	}
	return nil
}

// LoadWorkerSpec reads and validates a spec written by SaveWorkerSpec.
func LoadWorkerSpec(path string) (*WorkerSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: worker spec: %w", err)
	}
	var w WorkerSpec
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("fleet: decode worker spec %s: %w", path, err)
	}
	if w.FormatVersion != SpecFormatVersion {
		return nil, fmt.Errorf("fleet: worker spec has format %d, this build reads %d",
			w.FormatVersion, SpecFormatVersion)
	}
	if w.Shards <= 0 || w.Shard < 0 || w.Shard >= w.Shards {
		return nil, fmt.Errorf("fleet: worker spec names shard %d of %d", w.Shard, w.Shards)
	}
	return &w, nil
}
