# Developer convenience targets. `make check` is the pre-submit gate:
# static analysis, the full test suite under the race detector, and a short
# fuzzing smoke of the analyzer/search entry points.

GO ?= go

.PHONY: all build test check vet race fuzz-smoke bench bench-smoke bench-layered bench-layered-check serve-check cover golden

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# A 10-second no-panic fuzz of AnalyzeWithOptions + Search on top of the
# checked-in seed corpus, plus the cross-engine simulation invariants:
# analytic vs exact agreement, the sampled estimator's bounds, the
# set-associative simulator's batched-vs-scalar equivalence, and the
# transformation-plan legality contract (plans apply cleanly or reject
# before evaluation, and applied plans preserve execution semantics).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeNoPanic$$' -fuzztime 10s ./internal/tilesearch
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyticVsExact$$' -fuzztime 10s ./internal/validate
	$(GO) test -run '^$$' -fuzz '^FuzzSampledBounds$$' -fuzztime 10s ./internal/validate
	$(GO) test -run '^$$' -fuzz '^FuzzAssocBlockVsScalar$$' -fuzztime 10s ./internal/cachesim
	$(GO) test -run '^$$' -fuzz '^FuzzPlanLegality$$' -fuzztime 10s ./internal/loopir

check: vet race fuzz-smoke

# Library benchmark rows (cmd/bench): the simulation engines, the
# set-associative model's accuracy, compiled evaluation and tile search,
# the joint plan search, the in-process serving layer and the cluster tier,
# written to the committed BENCH.json (one row schema, one host block).
# Every served response is byte-verified against the direct library call.
bench:
	$(GO) run ./cmd/bench -o BENCH.json

# The four regression gates, as CI runs them: analytic ≥100× exact on the
# n=512 matmul, batch-64 items/s ≥ 3× predict-hot req/s, 4 replicas ≥ 2.5×
# one replica, and the joint search strictly beating tile-only on every
# opt workload.
bench-smoke:
	$(GO) run ./cmd/bench -smoke

# The layered analysisd benchmark (perfbench/, declared by BENCHMARK.json):
# one timed run of one workload. WORKLOAD is hot-repeat, fresh-sweep,
# cold-nests or search; run from the repository root, outputs land in
# .bench_build/.
WORKLOAD ?= hot-repeat
SEED ?= 1
bench-layered:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 12 --trace 0

# perfbench is a separate module (replace repro => ../), so the root
# `go build ./...` never compiles it although it imports core, tilesearch,
# service and cluster. This vets and tests it against the current tree.
bench-layered-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# End-to-end analysisd lifecycle check: start, readiness, one request per
# endpoint, SIGTERM, clean drain — then the same for the cluster tier
# (analysisrouter in front of two replicas: routed requests, all-backends-down
# 503, clean router drain).
serve-check:
	sh scripts/serve_check.sh

# Golden-file tests for the cmd tools' text output and RunReport JSON.
# Regenerate with: go test ./cmd/... -update
golden:
	$(GO) test -run Golden ./...

# Coverage gate for the observability layer: the instrumentation the run
# reports depend on must stay ≥ 70% covered.
cover:
	$(GO) test -coverprofile=/tmp/obs.cover ./internal/obs
	@$(GO) tool cover -func=/tmp/obs.cover | awk '/^total:/ { \
		pct = $$3 + 0; \
		printf "internal/obs coverage: %s\n", $$3; \
		if (pct < 70) { print "FAIL: internal/obs coverage below 70%"; exit 1 } }'
