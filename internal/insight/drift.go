// Package insight is spec17d's accuracy-drift monitor. The daemon's
// auto tier answers analytically first and upgrades to exact in the
// background, which means the store routinely holds *both*
// measurements of one (machine, workload, fidelity) identity — the
// analytic record under Key.Engine="analytic" and its exact twin under
// Engine="". The store hands each pair to ObservePair once, when its
// second record lands (store.Config.OnPair), and the monitor replays
// the cross-validation contract in production: every metric's relative
// disagreement is expressed as the fraction of its committed
// engine.Tolerances band it consumes (Band.Ratio), fed into
// spec17d_engine_drift_ratio{metric}, and a ratio above 1 — an answer
// the daemon already served that the exact engine later contradicted
// beyond contract — is counted in spec17d_engine_drift_violations_total
// and logged once at warn. GET /v1/accuracy serves the running totals
// and the worst offenders. The totals cover the pairs this process
// formed: records loaded from a snapshot form none, so a restart does
// not raise its predecessor's violations again. Memory is bounded by
// the offender table; the one request-path cost is scoring a pair,
// paid by the put that completes it.
package insight

import (
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"sync"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// maxOffenders bounds the worst-offenders table served by
// /v1/accuracy.
const maxOffenders = 16

// offenderCap bounds the in-memory offender map; when exceeded, the
// mildest entries are pruned (they were never going to make the
// table).
const offenderCap = 128

// Offender is one (machine, workload, metric) cell of the drift
// matrix, tracked by its worst observed band consumption.
type Offender struct {
	Machine    string  `json:"machine"`
	Workload   string  `json:"workload"`
	Metric     string  `json:"metric"`
	WorstRatio float64 `json:"worst_ratio"`
	// Analytic and Exact are the metric values behind WorstRatio.
	Analytic float64 `json:"analytic"`
	Exact    float64 `json:"exact"`
	// Count is how many compared samples fed this cell.
	Count int64 `json:"count"`
}

// AccuracyStatus is the GET /v1/accuracy body.
type AccuracyStatus struct {
	// Pairs is the number of (analytic, exact) record pairs compared.
	Pairs int64 `json:"pairs_compared"`
	// Samples is the number of per-metric comparisons across all pairs.
	Samples int64 `json:"samples"`
	// Violations counts samples whose band ratio exceeded 1.
	Violations int64 `json:"violations"`
	// WorstRatio is the largest band consumption ever observed.
	WorstRatio float64 `json:"worst_ratio"`
	// Worst lists the most band-consuming (machine, workload, metric)
	// cells, capped at 16.
	Worst []Offender `json:"worst,omitempty"`
}

// Drift scores the disagreement between analytic store records and
// their exact twins. Safe for concurrent use.
type Drift struct {
	log *slog.Logger

	ratio *metrics.HistogramVec
	// pairs and violations are also the totals Status reports, so
	// each pair and violation is counted once.
	pairs      *metrics.Counter
	violations *metrics.Counter

	powerOnce sync.Once
	hasPower  map[string]bool

	mu      sync.Mutex
	samples int64
	worst   float64
	cells   map[string]*Offender
}

// NewDrift returns a drift monitor whose instruments
// (spec17d_engine_drift_*) land in reg and whose band violations are
// logged to log, which defaults to an info-level structured logger on
// stderr.
func NewDrift(reg *metrics.Registry, log *slog.Logger) *Drift {
	if log == nil {
		log = telemetry.NewLogger(os.Stderr, slog.LevelInfo)
	}
	return &Drift{
		log: log,
		ratio: reg.HistogramVec("spec17d_engine_drift_ratio",
			"Analytic-vs-exact disagreement per compared metric, as the fraction of the tolerance band consumed (>1 = violation).",
			[]float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1, 1.5, 2, 4},
			"metric"),
		pairs: reg.Counter("spec17d_engine_drift_pairs_total",
			"Analytic/exact record pairs compared by the drift monitor."),
		violations: reg.Counter("spec17d_engine_drift_violations_total",
			"Drift samples whose disagreement exceeded the committed tolerance band."),
		cells: make(map[string]*Offender),
	}
}

// ObservePair scores one analytic record against its exact twin:
// every Table III metric the machine measures, plus the CPI
// pseudo-metric, against its engine.Tolerances band. It is the
// store's OnPair hook: records are immutable and the engines
// deterministic, so the one comparison the store makes per pair is
// definitive.
func (d *Drift) ObservePair(key store.Key, analytic, exact *machine.RawCounts) {
	hp := d.machineHasPower(key.Machine)
	aSample, aErr := counters.FromRaw(key.Machine, hp, analytic)
	xSample, xErr := counters.FromRaw(key.Machine, hp, exact)
	if aErr != nil || xErr != nil {
		return // zero-instruction records carry no metrics to compare
	}
	d.pairs.Inc()
	for _, m := range aSample.Metrics() {
		d.observeMetric(key, m, aSample.MustValue(m), xSample.MustValue(m))
	}
	d.observeMetric(key, engine.MetricCPI, analytic.CPI, exact.CPI)
}

func (d *Drift) observeMetric(key store.Key, m counters.Metric, a, x float64) {
	band, ok := engine.Tolerances[m]
	if !ok {
		return
	}
	ratio := band.Ratio(a, x)
	d.ratio.With(string(m)).Observe(ratio)
	d.mu.Lock()
	d.samples++
	if ratio > d.worst {
		d.worst = ratio
	}
	cellKey := key.Machine + "|" + key.Workload + "|" + string(m)
	cell, exists := d.cells[cellKey]
	if !exists {
		cell = &Offender{Machine: key.Machine, Workload: key.Workload, Metric: string(m)}
		d.cells[cellKey] = cell
		d.pruneCellsLocked()
	}
	cell.Count++
	if ratio > cell.WorstRatio {
		cell.WorstRatio, cell.Analytic, cell.Exact = ratio, a, x
	}
	d.mu.Unlock()
	if ratio > 1 {
		d.violations.Inc()
		d.log.Warn("insight event", "type", "band_violation",
			"msg", fmt.Sprintf("analytic %s for %s on %s drifted %.2fx beyond its tolerance band",
				m, key.Workload, key.Machine, ratio),
			"machine", key.Machine,
			"workload", key.Workload,
			"metric", string(m),
			"analytic", strconv.FormatFloat(a, 'g', 6, 64),
			"exact", strconv.FormatFloat(x, 'g', 6, 64),
			"ratio", strconv.FormatFloat(ratio, 'g', 4, 64))
	}
}

// pruneCellsLocked drops the mildest cells when the table outgrows
// offenderCap; callers hold d.mu.
func (d *Drift) pruneCellsLocked() {
	if len(d.cells) <= offenderCap {
		return
	}
	type kv struct {
		key   string
		ratio float64
	}
	all := make([]kv, 0, len(d.cells))
	for k, c := range d.cells {
		all = append(all, kv{k, c.WorstRatio})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ratio < all[j].ratio })
	for _, e := range all[:len(all)-offenderCap/2] {
		delete(d.cells, e.key)
	}
}

// Status returns the running totals and the worst-offenders table.
func (d *Drift) Status() AccuracyStatus {
	d.mu.Lock()
	st := AccuracyStatus{
		Pairs:      int64(d.pairs.Value()),
		Samples:    d.samples,
		Violations: int64(d.violations.Value()),
		WorstRatio: d.worst,
	}
	worst := make([]Offender, 0, len(d.cells))
	for _, c := range d.cells {
		worst = append(worst, *c)
	}
	d.mu.Unlock()
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].WorstRatio != worst[j].WorstRatio {
			return worst[i].WorstRatio > worst[j].WorstRatio
		}
		a := worst[i].Machine + "|" + worst[i].Workload + "|" + worst[i].Metric
		b := worst[j].Machine + "|" + worst[j].Workload + "|" + worst[j].Metric
		return a < b
	})
	if len(worst) > maxOffenders {
		worst = worst[:maxOffenders]
	}
	st.Worst = worst
	return st
}

// machineHasPower reports whether the named fleet machine measures
// power (RAPL), deciding whether the power metrics are compared.
// Unknown machines (tests, retired configs) compare base metrics only.
func (d *Drift) machineHasPower(name string) bool {
	d.powerOnce.Do(func() {
		d.hasPower = make(map[string]bool)
		fleet, err := machine.Fleet()
		if err != nil {
			return
		}
		for _, m := range fleet {
			d.hasPower[m.Name()] = m.Config().HasRAPL
		}
	})
	return d.hasPower[name]
}
