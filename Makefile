# Development / CI entry points. `make ci` is what a checkin must pass.
#
# The full test suite under the race detector rebuilds fleet
# characterizations, which the race runtime slows by ~20x (minutes per
# Lab); `ci` therefore runs -race on the concurrent packages (server,
# metrics, core, cluster, stats) where it has teeth, and `race-all`
# remains available for the exhaustive run.

GO ?= go
RACE_PKGS ?= ./internal/server/... ./internal/metrics/... ./internal/core/... \
             ./internal/cluster/... ./internal/stats/... ./internal/store/... \
             ./internal/sched/... ./internal/telemetry/... ./internal/admission/... \
             ./internal/engine/... ./internal/jobs/... ./internal/insight/...

.PHONY: ci fmt-check vet build test race race-all bench bench-smoke bench-snapshot bench-gate smoke clean

ci: fmt-check vet build test race bench-smoke

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

race-all:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs the analysis-path microbenchmarks (the eigensolver
# and PCA at the pipeline's 10x142 and 13x142 shapes) once each, so
# they keep compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EigenSym|FitPCA' -benchtime 1x ./internal/stats

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

clean:
	$(GO) clean ./...
