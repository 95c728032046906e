# Development / CI entry points. `make ci` is what a checkin must pass.
#
# The full test suite under the race detector rebuilds fleet
# characterizations, which the race runtime slows by ~20x (minutes per
# Lab); `ci` therefore runs -race on the concurrent packages (server,
# flight, metrics, core, cluster, stats, ...) where it has teeth, plus
# the analysis fan-out tests and the Lab's build coalescing in
# internal/experiments (`race-analysis`) and concurrent runs on one
# shared Machine, whose simulator state is pooled (`race-machine`);
# `race-all` remains available for the exhaustive run.

GO ?= go
RACE_PKGS ?= ./internal/server/... ./internal/metrics/... ./internal/core/... \
             ./internal/cluster/... ./internal/stats/... ./internal/store/... \
             ./internal/sched/... ./internal/telemetry/... ./internal/admission/... \
             ./internal/engine/... ./internal/jobs/... ./internal/insight/... \
             ./internal/flight/...

.PHONY: ci fmt-check vet build test race race-analysis race-machine race-all fuzz bench bench-smoke bench-snapshot bench-gate smoke loc clean

ci: fmt-check vet build test race race-analysis race-machine fuzz bench-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

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
# analytic runs sharing one store, and a RunStored of a pair inside a
# run that holds the only worker, all on the analytic engine.
race-analysis:
	$(GO) test -race -run 'Pinned|TestPerSuiteOrder|TestTable5ColdThenWarmStore|TestLabBuildSurvivesLeaderCancel|TestAnalyticRunsComputeEachKeyOnce|TestAnalyticRunStoredTakesNoSlot' ./internal/experiments

# race-machine race-checks concurrent Run calls on one shared Machine,
# which hand simulator state through a sync.Pool: every concurrent
# result must equal the serial one, and a reused state must equal a
# freshly built one.
race-machine:
	$(GO) test -race -run 'TestConcurrentRunsShareMachine|TestRunReuseBitIdentical' ./internal/machine

race-all:
	$(GO) test -race ./...

# fuzz runs each native fuzz target for a bounded time, starting from
# its committed seed corpus under testdata/fuzz/. A failing input is
# written there too, and then fails plain `go test` until fixed.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRunOptions$$' -fuzztime 10s ./internal/server

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the analysis-path microbenchmarks (the eigensolver
# and PCA at the pipeline's 10x142 and 13x142 shapes), the exact
# leaf's fixed-cost microbenchmarks (one sampled-fidelity leaf, one
# 4-copy RunMulti leaf, clearing and priming a hierarchy) and the cold
# analytic path's (a registry sweep of estimates, the
# characteristic-time solver alone, a cold analytic fleet
# characterization) and the server's result-cache hit (a table1-sized
# and a fig10-sized cached result through the whole handler) once
# each, so they keep compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EigenSym|FitPCA' -benchtime 1x ./internal/stats
	$(GO) test -run '^$$' -bench 'ExactLeaf|RunMulti|Prime' -benchtime 1x ./internal/machine
	$(GO) test -run '^$$' -bench 'AnalyticRegistry|LevelMisses' -benchtime 1x ./internal/engine
	$(GO) test -run '^$$' -bench 'CharacterizeColdAnalytic' -benchtime 1x ./internal/experiments
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
