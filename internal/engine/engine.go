// Package engine defines the pluggable measurement engines of the
// reproduction. An Engine answers one (machine, workload, options)
// measurement — the store-key grain — and two implementations exist:
//
//   - Exact drives the full trace-driven simulation substrate
//     (internal/trace through internal/machine), bit-identical to
//     machine.Run.
//   - Analytic evaluates a closed-form model of the same substrate:
//     miss rates, branch mispredicts, CPI-stack components, and power
//     are derived directly from the workload specification and the
//     machine's cache/TLB/predictor geometry, with no trace generation
//     and no per-event work. It is orders of magnitude faster and
//     agrees with Exact within the documented Tolerances.
//
// The serving layer composes the two: analytic answers interactively,
// a background upgrade re-measures hot keys exactly and publishes the
// results, so repeated queries converge to exact. See docs/ENGINES.md.
package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// Tier names a measurement engine tier. TierAuto is a request-level
// policy (serve analytic now, upgrade to exact in the background), not
// an Engine — New rejects it.
type Tier string

// The engine tiers.
const (
	TierExact    Tier = "exact"
	TierAnalytic Tier = "analytic"
	TierAuto     Tier = "auto"
)

// Nominal wall time of one measurement on each tier, on a 2-vCPU host.
// internal/core sizes its scheduler jobs from it and internal/server
// prices admission by the ratio. The analytic figure was a registry
// sweep's per-leaf estimate time (BenchmarkAnalyticRegistry, 40-55 µs)
// when it was set; since the characteristic-time solve replays its
// bisection from a Newton bracket, that is 19-26 µs. The constant
// stays 50 µs on purpose: it fixes the ÷50 admission price of an
// analytic request and core's 20-leaf runs, which moving it would
// resize. The exact figure is the analytic one times the 50x
// registry speedup the analytic tier is held to; an exact leaf costs
// more even at specbench's sampled fidelity (2.6-3.2 ms at 20000
// measured and 4000 warmup instructions), so it fills a job alone.
const (
	AnalyticLeafCost = 50 * time.Microsecond
	ExactLeafCost    = 50 * AnalyticLeafCost
)

// LeafCost returns the tier's nominal cost of one measurement. A tier
// this package does not define is priced as exact.
func (t Tier) LeafCost() time.Duration {
	if t == TierAnalytic {
		return AnalyticLeafCost
	}
	return ExactLeafCost
}

// ParseTier validates a user-supplied tier name. Unknown names are
// rejected with the allowed set in the message — never silently mapped
// to a default.
func ParseTier(s string) (Tier, error) {
	switch Tier(s) {
	case TierExact, TierAnalytic, TierAuto:
		return Tier(s), nil
	}
	return "", fmt.Errorf("engine: unknown tier %q (valid: exact, analytic, auto)", s)
}

// Engine measures one workload on one machine at one fidelity.
// Implementations must be deterministic: the same (machine, workload,
// canonical options) triple always yields the same counts.
type Engine interface {
	// Tier identifies the engine's tier.
	Tier() Tier
	// Measure produces the raw counts for one store-key-grain run.
	Measure(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error)
}

// New returns the Engine for a concrete tier. TierAuto is a serving
// policy over the two concrete engines and is rejected here.
func New(t Tier) (Engine, error) {
	switch t {
	case TierExact:
		return Exact{}, nil
	case TierAnalytic:
		return Analytic{}, nil
	case TierAuto:
		return nil, fmt.Errorf("engine: tier %q is a serving policy, not a concrete engine (valid: exact, analytic)", t)
	}
	return nil, fmt.Errorf("engine: unknown tier %q (valid: exact, analytic)", t)
}

// Exact is the trace-driven simulation engine. Its results are
// bit-identical to machine.Run (and to the pre-engine measurement
// path); it emits the same "simulate" leaf span the tracing surface
// has always keyed on.
type Exact struct{}

// Tier returns TierExact.
func (Exact) Tier() Tier { return TierExact }

// Measure simulates w on m.
func (Exact) Measure(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	_, span := telemetry.StartSpan(ctx, "simulate", "machine", m.Name(), "workload", w.Key)
	rc, err := m.Run(w, opts)
	span.End()
	return rc, err
}
