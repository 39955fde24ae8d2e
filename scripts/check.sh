#!/bin/sh
# CI gate: vet + full test suite under the race detector.
# Usage: ./scripts/check.sh   (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt check"
unformatted=$(gofmt -l cmd internal zmap examples scripts)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (CI runs the pinned version)"
fi

# -count=1: CI's runner is cold, a developer's cache is not, and a cached
# pass hides a flaky test.
echo "==> go test -race -count=1 ./..."
go test -race -count=1 ./...

echo "==> checkpoint round-trip (interrupt, resume, exactly-once)"
go test -race -count=1 -run 'TestCLISigintCheckpointResume|TestCheckpointResumeExactlyOnce' \
    ./cmd/zmapgo ./internal/core

echo "==> batched send loop vs faulty transport (batch-size sweep)"
go test -race -count=1 -run 'TestScanBatchedFaultyTransport' ./internal/core

echo "==> sharded receive parity: byte-equal output across worker counts, per-shard dedup resume"
go test -race -count=1 \
    -run 'TestShardedRecvEquivalence|TestShardedRecvResumeExactlyOnce' ./internal/core
go test -count=1 -run 'TestShardedRecvZeroAllocs|TestBatchSendPathZeroAllocs|TestComputeZeroAlloc' \
    ./internal/core ./internal/validate

echo "==> scan health: congestion knee + dark-subnet quarantine scenarios"
go test -race -count=1 \
    -run 'TestAdaptiveRateRecoversThroughCongestionKnee|TestDarkSubnetQuarantined|TestQuarantineSurvivesResume' \
    ./zmap

echo "==> kill -9 mid-scan: checkpointed result-loss bound"
go test -race -count=1 -run 'TestCLIKillResultLossBound' ./cmd/zmapgo

echo "==> adversarial network weather: bursty loss, blackout parole, unreachable storms"
go test -race -count=1 \
    -run 'TestCollapsePersistenceBeatsBurstyLoss|TestJitteredTicksDoNotFakeCollapse|TestUnreachStormClampedToHoldPeriod|TestParole' \
    ./internal/health
go test -race -count=1 -run 'TestScenarioPlaybackDeterministic|TestScenarioTimeline' ./internal/netsim
go test -race -count=1 \
    -run 'TestBurstyLossDoesNotCollapseAdaptiveRate|TestBlackoutQuarantineParoleRelease|TestParoleSurvivesKillAndResume|TestUnreachStormClampedEndToEnd' \
    ./zmap

echo "==> flight recorder: SIGUSR1 dump, scenario attribution, overhead budget"
go test -race -count=1 \
    -run 'TestCLISigusr1DumpsTraceMidScan' ./cmd/zmapgo
go test -race -count=1 \
    -run 'TestZAnalyzeTraceAttributesScenarioRun' ./cmd/zanalyze
go test -count=1 \
    -run 'TestTracingOverheadWithinTwoPercent' ./zmap

echo "==> fleet chaos: SIGKILL each of 3 workers mid-scan, exactly-once merge"
go test -race -count=1 -run 'TestFleetChaosExactlyOnce|TestFleetSlowWorkerNotReclaimed' ./zmap

echo "==> fleet-netchaos: networked workers through a partition-and-heal gauntlet"
go test -race -count=1 \
    -run 'TestFleetNetPartitionExactlyOnce|TestFleetWorkerSelfFencesPastTTL|TestFleetNetRemoteWorkersJoin|TestFleetRerunAdoptsLostDoneMark' \
    ./zmap
go test -race -count=1 \
    -run 'TestServerResultIdempotentAppend|TestServerFencesStaleEpoch|TestDecideDeterministic|TestTimelineParseCanonical' \
    ./internal/fleetnet

echo "==> trace-dump smoke: scan with --trace-file, analyze with zanalyze trace"
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/zmapgo -r 10.0.0.0/22 -p 80 --seed 5 --sim-lossless \
    --sim-time-scale 0 --cooldown-time 50ms --trace-sample-every 4 \
    --trace-file "$tracedir/trace.jsonl" -o /dev/null
go run ./cmd/zanalyze trace -strict "$tracedir/trace.jsonl" > "$tracedir/report.txt"
grep -q "stage latencies" "$tracedir/report.txt" \
    || { echo "zanalyze trace produced no latency report" >&2; exit 1; }

echo "==> scan benchmark smoke: reflector contract, ledger accept/forge assertions, oracle"
go run ./bench -workload recv_reflect -seed 2 -seconds 3 -trace 1 > "$tracedir/bench.txt" \
    || { tail -n 40 "$tracedir/bench.txt" >&2; echo "benchmark oracle violated" >&2; exit 1; }

echo "==> bench-check: allocs/op against the committed BENCH_*.json baselines"
make bench-check

echo "OK"
