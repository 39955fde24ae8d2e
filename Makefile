GO ?= go

.PHONY: all build test race vet check bench bench-check clean

all: build

build:
	$(GO) build ./...

# -count=1: a cached pass cannot hide a flaky test.
test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

# check is the CI gate: static analysis plus the full suite under the
# race detector (the fault-tolerance paths are concurrency-heavy).
check:
	./scripts/check.sh

# bench regenerates the committed baselines: the send-path shapes
# (probes/sec, ns/probe, allocs/probe with speedups vs per-probe), the
# flight-recorder hot path (RecordAt must stay <= 50 ns / 0 allocs; the
# Stamp variant prices the optional time.Now), the receive path (the
# repeat floor, and a first sighting with its row written) and the
# simulated Internet's link (a 64-probe batch answered, delivered and
# released must stay at 0 allocs). Baselines and bench-check's runs
# share -cpu 2: a figure says nothing about scaling without its
# GOMAXPROCS, and benchjson refuses to compare across settings.
bench:
	$(GO) test -run XXX -bench 'BenchmarkSendPath' -cpu 2 -benchtime=2s ./internal/core \
		| $(GO) run ./scripts/benchjson -baseline BenchmarkSendPathPerProbe \
		> BENCH_sendpath.json
	@cat BENCH_sendpath.json
	$(GO) test -run XXX -bench 'BenchmarkTrace' -cpu 2 -benchmem -benchtime=2s ./internal/trace \
		| $(GO) run ./scripts/benchjson \
		> BENCH_trace.json
	@cat BENCH_trace.json
	$(GO) test -run XXX -bench 'BenchmarkRecvPath' -cpu 2 -benchmem -benchtime=2s ./internal/core \
		| $(GO) run ./scripts/benchjson -baseline 'BenchmarkRecvPath/workers=1' \
		> BENCH_recvpath.json
	@cat BENCH_recvpath.json
	$(GO) test -run XXX -bench 'BenchmarkLinkSendBatch' -cpu 2 -benchmem -benchtime=2s ./internal/netsim \
		| $(GO) run ./scripts/benchjson \
		> BENCH_netsim.json
	@cat BENCH_netsim.json

# bench-check reruns the same benchmarks against the committed baselines
# and fails on any rise in allocs/op. Set BENCH_TOLERANCE=10% to also
# fail on ns/op — only on the machine the baselines were taken on.
BENCH_TOLERANCE ?=
bench-check:
	$(GO) test -run XXX -bench 'BenchmarkSendPath' -cpu 2 -benchtime=0.5s ./internal/core \
		| $(GO) run ./scripts/benchjson -compare BENCH_sendpath.json -tolerance '$(BENCH_TOLERANCE)'
	$(GO) test -run XXX -bench 'BenchmarkTrace' -cpu 2 -benchmem -benchtime=0.5s ./internal/trace \
		| $(GO) run ./scripts/benchjson -compare BENCH_trace.json -tolerance '$(BENCH_TOLERANCE)'
	$(GO) test -run XXX -bench 'BenchmarkRecvPath' -cpu 2 -benchmem -benchtime=0.5s ./internal/core \
		| $(GO) run ./scripts/benchjson -compare BENCH_recvpath.json -tolerance '$(BENCH_TOLERANCE)'
	$(GO) test -run XXX -bench 'BenchmarkLinkSendBatch' -cpu 2 -benchmem -benchtime=0.5s ./internal/netsim \
		| $(GO) run ./scripts/benchjson -compare BENCH_netsim.json -tolerance '$(BENCH_TOLERANCE)'

clean:
	$(GO) clean ./...
