#!/bin/sh
# CI gate: static analysis, every test once under the race detector, then
# the checks that line cannot make.
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

# The line above runs every test once: the checkpoint round-trip, the
# batch-size sweep, sharded-receive parity, scan health, kill -9, network
# weather, flight recorder, fleet chaos and fleet netchaos suites are all
# in it. What follows is only what that line cannot do: these skip or
# mis-measure under the race detector.
echo "==> zero-alloc hot paths (skipped under -race)"
go test -count=1 -run 'TestShardedRecvZeroAllocs|TestBatchSendPathZeroAllocs|TestComputeZeroAlloc' \
    ./internal/core ./internal/validate

echo "==> flight recorder overhead budget (timing, so without -race)"
go test -count=1 -run 'TestTracingOverheadWithinTwoPercent' ./zmap

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

# The traced send_null pass is the only check that the send loop probes
# every target exactly once (a bitmap over the whole range).
echo "==> scan benchmark smoke: send path exactly-once oracle"
go run ./bench -workload send_null -seed 2 -seconds 3 -trace 1 > "$tracedir/bench.txt" \
    || { tail -n 40 "$tracedir/bench.txt" >&2; echo "benchmark oracle violated" >&2; exit 1; }

# scan_sim's oracle checks that every eligible target of a sparse,
# blocklisted, two-port space was probed: the walk past out-of-space
# elements must skip nothing it should not.
echo "==> scan benchmark smoke: sparse two-port coverage oracle"
go run ./bench -workload scan_sim -seed 2 -seconds 3 > "$tracedir/bench.txt" \
    || { tail -n 40 "$tracedir/bench.txt" >&2; echo "benchmark oracle violated" >&2; exit 1; }

echo "==> bench-check: allocs/op against the committed BENCH_*.json baselines"
make bench-check

echo "OK"
