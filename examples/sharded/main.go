// Sharded: split one scan across three worker processes (§4.2). Every
// worker shares the seed — hence the permutation — and owns a disjoint
// pizza slice of the exponent space, so the union covers every target
// exactly once. Instead of looping over shards by hand, this drives the
// fleet coordinator: it spawns the workers (re-executions of this very
// binary), supervises them through heartbeat leases, would respawn any
// that crashed from their checkpoints, and merges the per-shard outputs
// with cross-shard deduplication back to an exactly-once result.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"zmapgo/zmap"
)

func main() {
	// Fleet workers are re-executions of this binary: when the
	// coordinator spawns one, this hook runs the assigned shard and
	// exits before the example's own logic begins.
	if zmap.FleetWorkerMain() {
		return
	}

	dir, err := os.MkdirTemp("", "zmapgo-sharded-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	res, err := zmap.RunFleet(context.Background(), zmap.FleetOptions{
		Workers: 3,
		Dir:     dir,
		// The same Options a single process would Compile: it travels
		// whole to every worker.
		Scan: zmap.Options{
			Ranges:   []string{"192.168.0.0/16"},
			Ports:    "443",
			Seed:     1234, // identical across workers: same permutation
			Threads:  2,
			Cooldown: 300 * time.Millisecond,
		},
		Sim: zmap.SimOptions{Seed: 5, Lossless: true, DisableBlowback: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, sh := range res.Shards {
		fmt.Printf("shard %d/%d: %6d probes, %4d services (epochs %d, reclaims %d)\n",
			sh.Shard, res.Workers, sh.Summary.PacketsSent, sh.Summary.UniqueSucc,
			sh.Epochs, sh.Reclaims)
	}

	// The merge already verified the partition: duplicates between
	// shards would have been counted (and dropped) here.
	merged, err := os.ReadFile(res.MergedOutput)
	if err != nil {
		log.Fatal(err)
	}
	union := len(strings.Fields(string(merged)))
	fmt.Printf("union: %d services, overlap between shards: %d, probes: %d (space = 65536)\n",
		union, res.Merge.Duplicates, res.PacketsSent)
}
