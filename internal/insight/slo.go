package insight

// SLO burn rates, computed from the recorder's own rings — the
// standard multi-window burn-rate construction (an alert needs both a
// fast window, so it fires quickly, and a slow window, so a brief
// blip doesn't page) applied per endpoint to the two objectives the
// daemon owns: request success (non-5xx) and request latency. A burn
// rate of 1 means the endpoint is consuming its error budget exactly
// as fast as the objective allows; above 1 in both windows the
// endpoint is burning, and the plane raises an slo_burn event on the
// transition.

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

// The objectives' targets and burn-rate windows.
const (
	// latencyTarget is the fraction of requests expected to meet
	// SLOConfig.Latency.
	latencyTarget = 0.95
	// errorTarget is the fraction of requests expected to answer
	// without a 5xx.
	errorTarget = 0.999
	fastWindow  = 5 * time.Minute
	slowWindow  = time.Hour
)

// SLOConfig sets the per-endpoint objectives. The zero value disables
// the latency objective.
type SLOConfig struct {
	// Latency is the per-request latency objective; latencyTarget of
	// requests should finish within it. 0 disables latency burn
	// tracking.
	Latency time.Duration
}

// EndpointSLO is one endpoint's burn-rate snapshot, served inside
// /v1/status.
type EndpointSLO struct {
	Endpoint string `json:"endpoint"`
	// Requests is the request count over the fast window.
	Requests float64 `json:"requests_fast_window"`
	// ErrorBurnFast/Slow are 5xx budget burn rates per window.
	ErrorBurnFast float64 `json:"error_burn_fast"`
	ErrorBurnSlow float64 `json:"error_burn_slow"`
	// LatencyBurnFast/Slow are latency budget burn rates per window
	// (omitted while the latency objective is disabled).
	LatencyBurnFast float64 `json:"latency_burn_fast,omitempty"`
	LatencyBurnSlow float64 `json:"latency_burn_slow,omitempty"`
	// Burning is set while either objective burns in both windows.
	Burning bool `json:"burning"`
}

// sloMonitor evaluates burn rates each tick and remembers which
// endpoints were already burning, so events fire on transitions, not
// continuously.
type sloMonitor struct {
	cfg    SLOConfig
	events *EventLog

	burning map[string]bool
	status  []EndpointSLO
}

func newSLOMonitor(cfg SLOConfig, events *EventLog) *sloMonitor {
	return &sloMonitor{cfg: cfg, events: events, burning: make(map[string]bool)}
}

// evaluate recomputes every endpoint's burn rates from the recorder.
// Called from the plane's tick loop (single goroutine); the result is
// handed to the plane under its lock.
func (m *sloMonitor) evaluate(rec *Recorder, now time.Time) []EndpointSLO {
	// Endpoints are discovered from the request counter's label sets:
	// {endpoint, code}.
	endpoints := map[string]bool{}
	for _, lv := range rec.labelSets("spec17d_requests_total") {
		if len(lv) == 2 {
			endpoints[lv[0]] = true
		}
	}
	names := make([]string, 0, len(endpoints))
	for ep := range endpoints {
		names = append(names, ep)
	}
	sort.Strings(names)

	out := make([]EndpointSLO, 0, len(names))
	for _, ep := range names {
		s := EndpointSLO{Endpoint: ep}
		var fastTotal float64
		s.ErrorBurnFast, fastTotal = m.errorBurn(rec, ep, fastWindow, now)
		s.ErrorBurnSlow, _ = m.errorBurn(rec, ep, slowWindow, now)
		s.Requests = fastTotal
		if m.cfg.Latency > 0 {
			s.LatencyBurnFast = m.latencyBurn(rec, ep, fastWindow, now)
			s.LatencyBurnSlow = m.latencyBurn(rec, ep, slowWindow, now)
		}
		s.Burning = (s.ErrorBurnFast > 1 && s.ErrorBurnSlow > 1) ||
			(s.LatencyBurnFast > 1 && s.LatencyBurnSlow > 1)
		if s.Burning && !m.burning[ep] {
			m.events.Emit(EventSLOBurn,
				fmt.Sprintf("endpoint %s is burning its SLO budget", ep),
				map[string]string{
					"endpoint":          ep,
					"error_burn_fast":   strconv.FormatFloat(s.ErrorBurnFast, 'g', 4, 64),
					"error_burn_slow":   strconv.FormatFloat(s.ErrorBurnSlow, 'g', 4, 64),
					"latency_burn_fast": strconv.FormatFloat(s.LatencyBurnFast, 'g', 4, 64),
					"latency_burn_slow": strconv.FormatFloat(s.LatencyBurnSlow, 'g', 4, 64),
				})
		}
		m.burning[ep] = s.Burning
		out = append(out, s)
	}
	m.status = out
	return out
}

// errorBurn returns the endpoint's 5xx budget burn over the window and
// the total in-window requests: the observed error fraction divided by
// the budget (1 − errorTarget).
func (m *sloMonitor) errorBurn(rec *Recorder, endpoint string, window time.Duration, now time.Time) (burn, totalReq float64) {
	var errs float64
	for _, lv := range rec.labelSets("spec17d_requests_total") {
		if len(lv) != 2 || lv[0] != endpoint {
			continue
		}
		d, ok := rec.counterDelta("spec17d_requests_total", lv, window, now)
		if !ok {
			continue
		}
		totalReq += d
		if code, err := strconv.Atoi(lv[1]); err == nil && code >= 500 {
			errs += d
		}
	}
	if totalReq == 0 {
		return 0, 0
	}
	return (errs / totalReq) / (1 - errorTarget), totalReq
}

// latencyBurn returns the endpoint's latency budget burn over the
// window: the fraction of requests slower than the objective — read
// from the latency histogram's bucket deltas, counting buckets whose
// upper bound fits inside the objective as "good" — divided by the
// budget (1 − latencyTarget).
func (m *sloMonitor) latencyBurn(rec *Recorder, endpoint string, window time.Duration, now time.Time) float64 {
	bounds, deltas, count, ok := rec.histWindow(
		"spec17d_request_duration_seconds", []string{endpoint}, window, now)
	if !ok || count == 0 {
		return 0
	}
	obj := m.cfg.Latency.Seconds()
	var good uint64
	for i, b := range bounds {
		if b <= obj && i < len(deltas) {
			good += deltas[i]
		}
	}
	bad := float64(count-good) / float64(count)
	return bad / (1 - latencyTarget)
}
