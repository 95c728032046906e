# Development / CI entry points. `make ci` is what a checkin must pass.
#
# The full test suite under the race detector rebuilds fleet
# characterizations, which the race runtime slows by ~20x (minutes per
# Lab); `ci` therefore runs -race on the concurrent packages (server,
# flight, metrics, core, cluster, stats, ...) where it has teeth, plus
# the analysis fan-out tests, the Lab's build coalescing and concurrent
# analytic characterizations sharing one store in internal/experiments
# (`race-analysis`) and concurrent runs on one
# shared Machine, whose simulator state is pooled, and on the
# process-wide fleet (`race-machine`).
# `race-sched` repeats the scheduler's ordering tests: its FIFO relies
# on Go's runtime waking a channel's blocked senders in arrival order,
# which the language spec does not promise, so a toolchain that changes
# the wake order fails CI there. `race-store` repeats the store's
# eviction tests, where records are evicted while flights run and while
# pairs form, and its key interning. `race-all` remains available for the exhaustive run.

GO ?= go
RACE_PKGS ?= ./internal/server/... ./internal/metrics/... ./internal/core/... \
             ./internal/cluster/... ./internal/stats/... ./internal/store/... \
             ./internal/sched/... ./internal/telemetry/... ./internal/admission/... \
             ./internal/engine/... ./internal/insight/... ./internal/flight/...

.PHONY: ci fmt-check fma-check vet build test race race-analysis race-machine race-engine race-sched race-store race-all fuzz bench bench-smoke bench-snapshot bench-gate smoke loc clean

ci: fmt-check fma-check vet build test race race-analysis race-machine race-engine race-sched race-store fuzz bench-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# fma-check cross-compiles the packages whose floating-point results
# feed pinned outputs (internal/stats' eigenvectors and distances, the
# cluster linkage and cophenetic correlation, the counter metrics, the
# power model, the experiments' noise statistics, the sensitivity
# classes, the synthetic speedups and geomeans, every workload's
# spec, each machine's jittered workload spec and CPI, the trace
# generator's branch layout) for the
# architectures on which Go fuses x*y + z into one multiply-add, and
# fails if the compiler's assembly (-gcflags=-S; a cached build
# replays it) holds one. A fused result is rounded once instead of
# twice, so it would give other bits than amd64, which never fuses;
# an explicit float64(x*y) conversion keeps the product rounded. The
# builds also prove that the portable rotateGo fallback compiles.
# internal/admission and internal/insight feed no result, but their
# floats decide what is shed and which drift counts as a band
# violation, which should not differ by host either.
FMA_ARCHS ?= arm64 ppc64le riscv64 s390x
FMA_PKGS ?= ./internal/stats ./internal/cluster ./internal/counters ./internal/power ./internal/experiments \
	./internal/core ./internal/perfdb ./internal/workloads ./internal/admission ./internal/insight \
	./internal/machine ./internal/trace

fma-check:
	@for arch in $(FMA_ARCHS); do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$asm"; exit 1; }; \
		fused=$$(echo "$$asm" | grep -E '\bFN?M(ADD|SUB)[DS]?\b'); \
		if [ -n "$$fused" ]; then echo "fused multiply-add on $$arch:"; echo "$$fused"; exit 1; fi; \
	done; echo "fma-check: no fused multiply-add in $(FMA_PKGS) on $(FMA_ARCHS)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# race-analysis race-checks the per-suite analysis fan-out in
# internal/experiments without the package's full Lab-building suite:
# the output pins, the fan-out helper, the cold-then-warm store pass,
# a Lab build that outlives the caller that started it, concurrent
# analytic characterizations and a RunStored sharing one store, and
# estimates that finish while the only worker is held, all on the
# analytic engine.
race-analysis:
	$(GO) test -race -run 'Pinned|TestPerSuiteOrder|TestTable5ColdThenWarmStore|TestLabBuildSurvivesLeaderCancel|TestAnalyticComputesEachKeyOnce|TestAnalyticTakesNoSlot' ./internal/experiments

# race-machine race-checks concurrent Run calls on one shared Machine,
# which hand simulator state through a sync.Pool, and concurrent Runs
# and RunMultis from two callers on the process-wide fleet, as two Labs
# make them: every concurrent result must equal the serial one, and a
# reused state must equal a freshly built one.
race-machine:
	$(GO) test -race -run 'TestConcurrentRunsShareMachine|TestRunReuseBitIdentical|TestConcurrentCallersShareFleet' ./internal/machine

# race-engine race-checks the analytic engine's per-pair memo of
# first-level characteristic times: concurrent estimates of one pair,
# racing to solve and store its times, must equal the serial one.
race-engine:
	$(GO) test -race -count=10 -run 'TestFirstLevelMemoConcurrent' ./internal/engine

# race-sched repeats the tests that pin the scheduler's order: jobs
# start in submission order, a capped queue's backlog lets other
# queues through, and a caller that leaves while waiting gives back
# what it took.
race-sched:
	$(GO) test -race -count=20 -run 'TestFIFOOrder|TestQueueCapDoesNotStarveOthers|TestCancellation' ./internal/sched

# race-store repeats the store's eviction tests under the race
# detector: GetOrCompute over more keys than a shrunken bound holds, so
# records go while other keys' flights run; both halves of many pairs
# put while unrelated records evict them; concurrent evicting puts,
# after which the size gauges must equal the store's own counts; and
# goroutines keying the same new pairs at once, which must all get one
# interned pair per workload.
race-store:
	$(GO) test -race -count=10 -run 'TestEvictionRacesFlights|TestEvictionRacesOnPair|TestGaugesTrackConcurrentPuts|TestKeyInterningConcurrent' ./internal/store

race-all:
	$(GO) test -race ./...

# fuzz runs each native fuzz target (the query-string parser, the
# batch request-body decoder, the store snapshot loader, the
# machine-config decoder, the tolerance bands' ratio) for a bounded
# time, starting from its committed seed corpus under testdata/fuzz/.
# A failing input is written there too, and then fails plain `go test`
# until fixed.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRunOptions$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzBatchBody$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzStoreOpen$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzParseConfigs$$' -fuzztime 10s ./internal/machine
	$(GO) test -run '^$$' -fuzz '^FuzzBandRatio$$' -fuzztime 10s ./internal/engine

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the analysis-path microbenchmarks (the eigensolver
# and PCA at the pipeline's 10x142 and 13x142 shapes), the exact
# leaf's fixed-cost microbenchmarks (one sampled-fidelity leaf, one
# 4-copy RunMulti leaf, clearing and priming a hierarchy) and the cold
# analytic path's (a registry sweep of estimates, the
# characteristic-time solver alone, a cold analytic fleet
# characterization), keying the registry on the fleet with every
# pair already interned, putting a fresh analytic grid into a
# store full to its bound, and the server's result-cache hit (a
# table1-sized and a fig10-sized cached result through the whole
# handler) once each, so they keep compiling and running. The engine,
# store and experiments lines add -benchmem, so the log shows the cold
# analytic path's allocs/op.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EigenSym|FitPCA' -benchtime 1x ./internal/stats
	$(GO) test -run '^$$' -bench 'ExactLeaf|RunMulti|Prime' -benchtime 1x ./internal/machine
	$(GO) test -run '^$$' -bench 'AnalyticRegistry|LevelMisses' -benchtime 1x -benchmem ./internal/engine
	$(GO) test -run '^$$' -bench 'KeyFleet|FidelitySweep' -benchtime 1x -benchmem ./internal/store
	$(GO) test -run '^$$' -bench 'CharacterizeColdAnalytic' -benchtime 1x -benchmem ./internal/experiments
	$(GO) test -run '^$$' -bench 'CachedExperiment' -benchtime 1x ./internal/server

# bench-snapshot measures the key performance paths (characterization
# fan-out, store-hit, both measurement engines over the full registry)
# and writes the next committed BENCH_<n>.json. bench-gate re-measures
# and fails on >30% regression against the last snapshot, or if the
# analytic engine's registry speedup drops below its contractual 50x.
bench-snapshot:
	$(GO) run ./scripts/benchsnap

bench-gate:
	$(GO) run ./scripts/bench_gate

# smoke boots a real spec17d binary and walks the observability
# surface: healthz, status, metrics, one traced report, and the
# report's trace in /v1/traces.
smoke:
	$(GO) run ./scripts/smoke

# loc prints each package's non-test Go lines, not counting blank and
# comment-only lines, then their total: the one line count that
# simplification changes report.
loc:
	@find . -path ./.bench_build -prune -o -name '*.go' ! -name '*_test.go' -print | sort | \
	xargs awk '!/^[[:space:]]*(\/\/|$$)/ { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; t++ } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

clean:
	$(GO) clean ./...
