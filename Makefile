# Local targets mirror .github/workflows/ci.yml so "it passed on my
# machine" and "it passed CI" mean the same commands.

GO ?= go

.PHONY: build test short race bench batch-smoke replay-smoke gang-smoke compress-smoke scenario-smoke op-smoke store-smoke serve-smoke docs-check cover lint fmt golden profile profile-gang bench-json bench-compare ci

build:
	$(GO) build ./...

# The full grid, shuffled to catch test-order dependence: what the
# nightly CI job runs. Includes the golden-file suite and the
# batched-vs-unbatched equivalence pass.
test:
	$(GO) test -shuffle=on -count=1 ./...

# The per-push subset: slow harness paths skip themselves.
short:
	$(GO) test -shuffle=on -count=1 -short ./...

# Race detector over the concurrent grid, with per-package coverage
# published in the same pass. Runs the same short test set as `short`,
# so CI only needs this one step (it subsumes the plain short pass and
# the coverage run). The explicit -timeout exists because the harness
# short set under -race outgrew go test's 10m default once the grid
# reached 29 cells; it is headroom, not a target.
race:
	$(GO) test -race -cover -shuffle=on -count=1 -short -timeout=25m ./...

# Per-package coverage over the short set without the race detector,
# for a quick local read (CI gets coverage from `race`).
cover:
	$(GO) test -short -count=1 -cover ./...

# One pass over every benchmark, no timing loops: proves the bench
# code still runs. Full timings: go test -bench=. -benchtime=3x .
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# The batch-equivalence smoke: renders the experiment grid through the
# batched pipeline against the checked-in goldens, and cross-checks a
# cell against the unbatched reference counter by counter. Fails if
# the two pipelines disagree anywhere.
batch-smoke:
	$(GO) test -count=1 -run 'TestGoldenFiles|TestBatchedMatchesReferenceSubset' ./internal/harness

# The replay-equivalence smoke: renders the experiment grid with
# recording/replay force-enabled (the default; TestGoldenFiles) and
# force-disabled (every run re-executes the engine) and diffs both
# against the same goldens. Fails if replay changes any figure.
replay-smoke:
	$(GO) test -count=1 -run 'TestGoldenFiles|TestReplayDisabledMatchesGoldens' ./internal/harness

# The gang-equivalence smoke: a multi-platform grid measured as gangs
# and with every cell its own unit (a gang of one) must agree counter
# for counter, an overflowing gang must still execute the workload
# once per pass for all of its platforms, and gangs of one and three
# must match the straight-line Section 4.3 reference.
gang-smoke:
	$(GO) test -count=1 -run 'TestGangMatchesSequential|TestGangUsesOneExecution|TestProtocolMatchesReference' ./internal/harness

# The compression-equivalence smoke: the full golden grid rendered
# with recorded traces in the columnar compressed arena (the default;
# TestGoldenFiles), with the raw []Event arena, plus the codec
# round-trip and fuzz-seed regression tests. Fails if the codec
# changes a single byte of any figure or loses an event anywhere.
compress-smoke:
	$(GO) test -count=1 -run 'TestCodec|FuzzCodecRoundTrip' ./internal/trace
	$(GO) test -count=1 -run 'TestGoldenFiles|TestCompressionDisabledMatchesGoldens' ./internal/harness

# The scenario smoke: the five scenario experiments (Grace hash join,
# sort-based aggregation, B-tree range scan, join-sort-aggregate,
# index-probe join) rendered against their goldens on their own small
# grid, plus the result cross-checks against their reference
# operators. Cheap enough for every push; the nightly full grid
# additionally diffs the scenario cells across the unbatched /
# replay-off paths.
scenario-smoke:
	$(GO) test -count=1 -run 'TestScenarioGoldens|TestScenarioResultsConsistent|TestScenarioSystemASkipsBRS' ./internal/harness

# The operator-DAG regression set: the op package alone under the race
# detector (its operators are what every scenario now composes), the
# pinned per-scenario stream digests, and the plan-tree equivalence
# fuzz target over its committed seed corpus
# (testdata/fuzz/FuzzPlanTreeEquivalence — seeds only, no -fuzz;
# mirrors how compress-smoke runs FuzzCodecRoundTrip).
op-smoke:
	$(GO) test -race -count=1 ./internal/engine/op
	$(GO) test -count=1 -run 'TestStreamDigestsPinned|FuzzPlanTreeEquivalence' ./internal/engine

# The warm-start smoke: the tracestore package (corrupt-input and
# fuzz-seed regressions included), the snapshot/store equivalence
# tests, the store-key tests (an entry written at another scale or
# TPC-D record size must never answer; TallyKey names the entry the
# protocol writes, read back bit-identical by LookupTally), the
# self-healing test (an undecodable tally, trace ref or snapshot blob
# is replaced by the recompute), then the real CLI run twice against
# one store directory —
# stdout must be byte-identical cold vs warm, and the warm run's
# stderr stats line must report nonzero entry hits (proof the second
# run actually started from the store, not from zero).
STORE_SMOKE_DIR := /tmp/wheretime-store-smoke
store-smoke:
	$(GO) test -count=1 ./internal/tracestore
	$(GO) test -count=1 -run 'TestSnapshotRestoreMatchesDrain|TestStoreWarmHits|TestStoreDirOptionFlushes|TestStoreKeyNames|TestLookupTallyMatchesMeasure|TestStoreHealsUndecodableEntries' ./internal/harness
	rm -rf $(STORE_SMOKE_DIR) && mkdir -p $(STORE_SMOKE_DIR)
	$(GO) run ./cmd/wheretime -experiment fig5.1 -scale 0.002 -store $(STORE_SMOKE_DIR)/store \
		> $(STORE_SMOKE_DIR)/cold.out 2> $(STORE_SMOKE_DIR)/cold.err
	$(GO) run ./cmd/wheretime -experiment fig5.1 -scale 0.002 -store $(STORE_SMOKE_DIR)/store \
		> $(STORE_SMOKE_DIR)/warm.out 2> $(STORE_SMOKE_DIR)/warm.err
	diff $(STORE_SMOKE_DIR)/cold.out $(STORE_SMOKE_DIR)/warm.out
	grep -E 'store: entry hits=[1-9][0-9]* ' $(STORE_SMOKE_DIR)/warm.err
	rm -rf $(STORE_SMOKE_DIR)

# The robustness smoke: the wheretimed service and fault-injection
# packages under the race detector (coalescing, gang batching on the
# fake clock, quarantine-and-recompute, timeouts, panic containment,
# read-only fallback, the harness cancellation contract and the
# exported gang entry point with its key-compat fuzz seeds), then the
# real daemon end to end — concurrent POSTs coalesced, a repeat
# answered from the stored tally without a simulation, a corrupted
# store quarantined and recomputed byte-identically, a multi-config
# burst batched into one gang and byte-compared against a
# -gangwindow=0 control server, SIGTERM drained to exit 0 (see
# cmd/servesmoke).
serve-smoke:
	$(GO) test -race -count=1 ./internal/server ./internal/faults
	$(GO) test -race -count=1 -run 'TestMeasureContext|TestMeasureGang|FuzzGangKeyCompat' ./internal/harness
	$(GO) run ./cmd/servesmoke

# The documentation contract: every relative link in docs/*.md and
# README.md resolves (files and #anchors), and every internal/ package
# carries a proper package comment.
docs-check:
	$(GO) run ./cmd/docscheck

# CPU profile of the full serial grid benchmark, written to grid.pprof
# (inspect with: go tool pprof grid.pprof).
profile:
	$(GO) test -bench='BenchmarkGridSerial$$' -benchtime=1x -run='^$$' -cpuprofile grid.pprof .

# CPU profile of the multi-platform gang drain (BenchmarkGangSweep),
# written to gang.pprof: where the K-config inner loops spend time.
profile-gang:
	$(GO) test -bench='BenchmarkGangSweep' -benchtime=1x -run='^$$' -cpuprofile gang.pprof .

# Machine-readable perf record: the grid benchmarks (serial, parallel
# at 1/2/max workers with the real counts reported, replay-disabled),
# the gang-vs-sequential platform sweep, the replay-vs-execute and
# compressed-vs-raw-replay comparisons (the latter carries the
# measured compression ratio), a raw TPC-D pass and the drain
# microbenchmarks, written to BENCH.json for trajectory tracking
# (committed as BENCH_PR<n>.json when a PR re-baselines). The grid
# benchmarks build with the committed default.pgo profile — the
# shipped configuration — so the record measures what a PGO build
# delivers. Each step is its own recipe line so a failing benchmark
# run fails the target instead of producing a silently incomplete
# record.
bench-json:
	$(GO) test -pgo=default.pgo -bench='BenchmarkGridSerial$$|BenchmarkGridSerialNoReplay$$|BenchmarkGridParallel$$|BenchmarkGridWarmStart$$|BenchmarkReplayVsExecute|BenchmarkCompressedReplay|BenchmarkGangSweep$$|BenchmarkTPCDPass$$' \
		-benchtime=1x -benchmem -run='^$$' . > bench-raw.txt
	$(GO) test -bench='BenchmarkProcessBatch$$|BenchmarkCompressedDrain$$' -benchtime=3x -benchmem -run='^$$' ./internal/xeon >> bench-raw.txt
	$(GO) run ./cmd/benchjson < bench-raw.txt > BENCH.json
	rm bench-raw.txt

# The benchmark regression gate the nightly CI runs after bench-json:
# fails if grid time in the fresh BENCH.json regressed >10% against
# the committed PR record.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_PR8.json BENCH.json

# Regenerate the golden files after an intentional output change.
# (The package path precedes -update: go test stops parsing at the
# first flag it does not know, and -update lives in the test binary.)
golden:
	$(GO) test ./internal/harness -count=1 -run TestGoldenFiles -update

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

fmt:
	gofmt -w .

ci: lint build race bench batch-smoke replay-smoke gang-smoke compress-smoke scenario-smoke op-smoke store-smoke serve-smoke docs-check
