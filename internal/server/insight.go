package server

// The drift monitor's HTTP surface. GET /v1/accuracy exists only when
// Config.Insight is set — a daemon without the monitor 404s it through
// the ordinary fallback — and, like the rest of the observability
// surface, it is untraced and unadmitted, so a saturated daemon still
// answers it.

import (
	"net/http"

	"repro/internal/insight"
)

// accuracyResponse is the GET /v1/accuracy body.
type accuracyResponse struct {
	// Enabled reports whether pairs reach the drift monitor: the
	// server's store must be opened with an OnPair hook, or nothing is
	// ever compared.
	Enabled bool `json:"enabled"`
	insight.AccuracyStatus
}

// handleAccuracy is GET /v1/accuracy: the drift monitor's running
// totals and worst offenders. The store scores each pair as it forms,
// so the answer already reflects every upgrade that has landed.
func (s *Server) handleAccuracy(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, accuracyResponse{
		Enabled:        s.cfg.Store != nil && s.cfg.Store.PairHooked(),
		AccuracyStatus: s.cfg.Insight.Status(),
	})
}
