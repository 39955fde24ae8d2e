package zmap

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"reflect"
	"time"

	"zmapgo/internal/checkpoint"
	"zmapgo/internal/fleet"
	"zmapgo/internal/fleetnet"
)

// FleetResult is the fleet-level scan summary: per-shard supervision
// history, the merge accounting, and aggregated engine counters.
type FleetResult = fleet.Result

// FleetFaultPlan is a deterministic schedule of injected worker faults
// (kill, hang, slow) for chaos testing a fleet; see ParseFleetFaults.
type FleetFaultPlan = fleet.FaultPlan

// ErrFleetRespawnsExhausted is wrapped into RunFleet's error when one
// shard's worker died more times than FleetOptions.MaxRespawns allows.
var ErrFleetRespawnsExhausted = fleet.ErrRespawnsExhausted

// ParseFleetFaults reads a fault schedule like
// "kill:0@800ms,hang:1@1.2s,slow:2@500ms/300ms" — each term is
// kind:shard@delay, with /duration on slow faults.
func ParseFleetFaults(s string) (*FleetFaultPlan, error) {
	return fleet.ParseFaultPlan(s)
}

// RandomFleetFaults derives a deterministic chaos schedule from a seed:
// count faults spread over the window, hitting random shards with
// random kinds. Same inputs, same plan.
func RandomFleetFaults(seed uint64, workers, count int, window, maxSlow time.Duration) *FleetFaultPlan {
	return fleet.RandomFaultPlan(seed, workers, count, window, maxSlow)
}

// FleetOptions configures a fault-tolerant multi-worker scan: one
// logical scan split into Workers pizza shards, each run by a separate
// supervised worker process against the shared simulated Internet, with
// crash recovery from per-shard checkpoints and an exactly-once merge
// of the results. See RunFleet.
type FleetOptions struct {
	// Workers is the shard/worker count (default 1).
	Workers int

	// Dir is the fleet state directory (default: a fresh temp dir).
	// Re-running over an existing directory resumes it: finished
	// shards are skipped, live workers are adopted, dead ones are
	// reclaimed and resumed from their checkpoints.
	Dir string

	// Binary is the worker executable; default is this process's own
	// binary, which must call FleetWorkerMain at the top of main().
	Binary string

	// Scan is the scan every worker runs; it travels to them whole.
	// Seed is required and must be non-zero: every worker derives the
	// same target permutation from it, which is what makes the pizza
	// shards a disjoint cover of the space. Rate (or Bandwidth) is the
	// aggregate fleet budget (0 = unlimited): live workers share it
	// equally; a dead worker's slice moves to the survivors until its
	// shard respawns. RunFleet refuses by name, rather than drop, the
	// fields that cannot travel or that the fleet sets per worker.
	Scan Options

	// Sim is the simulated Internet shared by all workers (the
	// population is a pure function of Sim.Seed, so every process sees
	// the same hosts); SimTimeScale compresses its RTTs (see NewLink).
	Sim          SimOptions
	SimTimeScale float64

	// Supervision knobs; zero values take the fleet defaults
	// (2s lease TTL, TTL/4 heartbeat, 500ms checkpoints, 5 respawns,
	// 100ms initial backoff doubling to 2s).
	LeaseTTL           time.Duration
	HeartbeatInterval  time.Duration
	CheckpointInterval time.Duration
	RatePollInterval   time.Duration
	MaxRespawns        int
	RespawnBackoff     time.Duration
	RespawnBackoffMax  time.Duration

	// Faults optionally injects a chaos schedule into the run.
	Faults *FleetFaultPlan

	// Listen switches the coordinator onto the network control plane:
	// it serves the coordinator↔worker protocol over HTTP/JSON on this
	// address (host:port; port 0 picks a free one) and workers join
	// over TCP instead of sharing the fleet directory. The durable
	// state still lives in Dir — the server is a fencing facade over
	// the same files, so merge, resume, and the journal are identical
	// across planes.
	Listen string
	// Advertise overrides the URL published to workers (useful when
	// workers reach the coordinator through a different address, e.g. a
	// proxy or NAT). Default: http://<bound address>.
	Advertise string
	// JoinToken, when non-empty, is required on every worker RPC.
	JoinToken string
	// RemoteWorkers stops the coordinator from spawning local worker
	// processes: grants are offered over the network and remote
	// `zmapgo fleet-worker --join` processes acquire and run them.
	// Requires Listen.
	RemoteWorkers bool
	// OnListen, when set, receives the control plane's directly-bound
	// URL (http://<listen address>) once the listener is up, before any
	// worker is granted. Workers join via the Advertise URL when set;
	// the bound one is what a front proxy or health check targets.
	OnListen func(url string)

	// MergedOutput receives the deduplicated union of every shard's
	// results (default <Dir>/merged.<ext>). MetadataPath receives the
	// fleet summary document; TracePath the coordinator's decision
	// journal as JSONL ("-" disables either).
	MergedOutput string
	MetadataPath string
	TracePath    string

	// Metrics optionally supplies the registry fleet metrics record
	// into; Logger receives coordinator logs (nil discards).
	Metrics *MetricsRegistry
	Logger  *slog.Logger
}

// fleetScan is the document a fleet distributes: the coordinator and
// its control planes carry it as opaque JSON, each worker decodes it.
type fleetScan struct {
	Options      Options    `json:"options"`
	Sim          SimOptions `json:"sim"`
	SimTimeScale float64    `json:"sim_time_scale,omitempty"`
}

func decodeFleetScan(doc []byte) (scan fleetScan, err error) {
	if err = json.Unmarshal(doc, &scan); err == nil && scan.Options.Seed == 0 {
		err = errors.New("zmap: fleet scan document carries seed 0 (fleet scans require a fixed seed)")
	}
	return scan, err
}

// fleetRefusal names the first field a fleet's scan may not set: every
// field that does not serialise (`json:"-"`), so that none can be left
// behind unnoticed, and what the worker runtime sets itself. Refusing
// beats dropping: a scan that skipped an operator's blocklist because
// its reader could not travel would look like success.
func (o Options) fleetRefusal() error {
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Tag.Get("json") == "-" && !v.Field(i).IsZero() {
			return fmt.Errorf("zmap: FleetOptions.Scan.%s is local to one process and cannot travel to a fleet's workers "+
				"(a BlocklistFile's entries go in Blocklist; FleetOptions has the fleet's outputs, Metrics and Logger)", f.Name)
		}
	}
	switch {
	case o.CheckpointPath != "" || o.CheckpointInterval != 0:
		return errors.New("zmap: FleetOptions.Scan.CheckpointPath/CheckpointInterval: each worker checkpoints into its shard directory, every FleetOptions.CheckpointInterval")
	case o.Shards != 0 && o.Shards != 1 || o.ShardIndex != 0:
		return errors.New("zmap: FleetOptions.Scan.Shards/ShardIndex: the fleet shards the scan by FleetOptions.Workers")
	case o.Seed == 0:
		return errors.New("zmap: FleetOptions.Scan.Seed must be fixed and non-zero: every worker derives the same permutation from it")
	}
	return nil
}

// config compiles the scan's front half once for what the coordinator
// needs of it: the rate budget and each shard's expected fingerprint —
// the Config.Fingerprint a worker's Compile embeds in its checkpoints.
func (o FleetOptions) config() (fleet.Config, error) {
	if err := o.Scan.fleetRefusal(); err != nil {
		return fleet.Config{}, err
	}
	scan, err := o.Scan.config()
	if err != nil {
		return fleet.Config{}, err
	}
	doc, err := json.Marshal(fleetScan{Options: o.Scan, Sim: o.Sim, SimTimeScale: o.SimTimeScale})
	if err != nil {
		return fleet.Config{}, err
	}
	scan.Shards = o.Workers
	fps := make([]checkpoint.Fingerprint, o.Workers)
	for i := range fps {
		scan.ShardIndex = i
		fps[i] = scan.Fingerprint()
	}
	return fleet.Config{
		Workers:            o.Workers,
		Dir:                o.Dir,
		Binary:             o.Binary,
		Scan:               doc,
		Format:             o.Scan.Format,
		Fingerprints:       fps,
		RateBudget:         scan.Rate,
		LeaseTTL:           o.LeaseTTL,
		HeartbeatInterval:  o.HeartbeatInterval,
		CheckpointInterval: o.CheckpointInterval,
		RatePollInterval:   o.RatePollInterval,
		MaxRespawns:        o.MaxRespawns,
		RespawnBackoff:     o.RespawnBackoff,
		RespawnBackoffMax:  o.RespawnBackoffMax,
		Faults:             o.Faults,
		RemoteWorkers:      o.RemoteWorkers,
		MergedOutput:       o.MergedOutput,
		MetadataPath:       o.MetadataPath,
		TracePath:          o.TracePath,
		Metrics:            o.Metrics,
		Logger:             o.Logger,
	}, nil
}

// RunFleet splits the scan into Workers pizza shards and runs each in a
// supervised worker process: heartbeat leases detect crashed or hung
// workers, which are reclaimed and respawned from their last durable
// checkpoint with bounded backoff (at-least-once per shard), and the
// per-shard outputs are merged with cross-shard deduplication back to
// exactly-once. The merged result is byte-equivalent to an
// uninterrupted single-process scan of the same space (text format,
// sorted-unique), faults or not.
func RunFleet(ctx context.Context, o FleetOptions) (*FleetResult, error) {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	cfg, err := o.config()
	if err != nil {
		return nil, err
	}
	if cfg.Dir == "" {
		if cfg.Dir, err = os.MkdirTemp("", "zmapgo-fleet-"); err != nil {
			return nil, err
		}
	}
	if o.Listen != "" || o.RemoteWorkers || o.OnListen != nil {
		cfg.Plane = fleetnet.NewServer(fleetnet.ServerOptions{
			Listen:    o.Listen,
			Advertise: o.Advertise,
			Token:     o.JoinToken,
			OnListen:  o.OnListen,
		})
	}
	return fleet.Run(ctx, cfg)
}
