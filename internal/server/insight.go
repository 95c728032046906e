package server

// The insight plane's HTTP surface: accuracy drift and anomaly
// events. These routes exist only when Config.Insight is set — a
// daemon without the plane 404s them through the ordinary fallback —
// and, like the rest of the observability surface, they are untraced
// and unadmitted, so a saturated daemon still answers them.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

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
		AccuracyStatus: s.cfg.Insight.Drift().Status(),
	})
}

// eventsResponse is the GET /v1/events body.
type eventsResponse struct {
	Count  int             `json:"count"`
	Events []insight.Event `json:"events"`
}

// handleEvents is GET /v1/events: the anomaly-event ring, newest
// first. ?type= keeps one event class, ?since= (RFC 3339) a time
// range, ?limit= bounds the count (default 100).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var typ insight.EventType
	if v := q.Get("type"); v != "" {
		known := insight.KnownEventTypes()
		ok := false
		names := make([]string, 0, len(known))
		for _, t := range known {
			names = append(names, string(t))
			ok = ok || string(t) == v
		}
		if !ok {
			writeError(w, http.StatusBadRequest, codeBadOptions,
				fmt.Sprintf("unknown event type %q", v), names)
			return
		}
		typ = insight.EventType(v)
	}
	var since time.Time
	if v := q.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadOptions,
				fmt.Sprintf("since=%q: must be an RFC 3339 timestamp", v), nil)
			return
		}
		since = t
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, codeBadOptions,
				fmt.Sprintf("limit=%q: must be a positive integer", v), nil)
			return
		}
		limit = n
	}
	evs := s.cfg.Insight.Events().Events(typ, since, limit)
	if evs == nil {
		evs = []insight.Event{}
	}
	writeJSON(w, http.StatusOK, eventsResponse{Count: len(evs), Events: evs})
}
