package server

// The route table is the single source of truth for the /v1 surface:
// New builds the mux from it, strictQuery enforces each route's query
// parameters from it, handleFallback computes 404s and
// method-not-allowed responses (405 + Allow) from it, and
// handleDiscovery serves it as the GET /v1 discovery document — so
// none of them can disagree about what the API looks like.

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
)

// routeDef is one registered endpoint.
type routeDef struct {
	method  string
	pattern string // ServeMux pattern; {x} segments are wildcards
	// traced arms the compute-request path: admission gate, request
	// deadline, root trace span. Observability endpoints stay false so
	// a saturated daemon still answers them.
	traced bool
	// raw skips the instrument wrapper entirely (/metrics: scraping
	// must not count itself into the metrics it reads).
	raw bool
	// params lists the query parameters the route accepts; any other
	// is a 400 (see strictQuery), and discovery publishes the list.
	params []string
	desc   string
	h      http.HandlerFunc
}

// routeTable returns every endpoint this server serves. Order is the
// discovery-document order.
func (s *Server) routeTable() []routeDef {
	runParams := []string{"instructions", "warmup", "engine"}
	routes := []routeDef{
		{method: "GET", pattern: "/v1", h: s.handleDiscovery,
			desc: "this discovery document"},
		{method: "GET", pattern: "/v1/experiments", h: s.handleCatalog,
			params: []string{"limit", "offset"},
			desc:   "experiment catalog (paginated; X-Total-Count carries the full size)"},
		{method: "GET", pattern: "/v1/experiments/{id}", traced: true, h: s.handleExperiment,
			params: runParams,
			desc:   "run one experiment at the requested fidelity and engine tier"},
		{method: "GET", pattern: "/v1/report", traced: true, h: s.handleReport,
			params: runParams,
			desc:   "run the full report"},
		{method: "GET", pattern: "/v1/batch", traced: true, h: s.handleBatch,
			params: []string{"experiments", "instructions", "warmup", "concurrency", "engine"},
			desc:   "stream a set of experiments as NDJSON, one line per result"},
		{method: "POST", pattern: "/v1/batch", traced: true, h: s.handleBatch,
			desc: "stream a set of experiments as NDJSON (JSON body)"},
		{method: "GET", pattern: "/v1/status", h: s.handleStatus,
			desc: "operator status snapshot"},
		{method: "GET", pattern: "/v1/traces", h: s.handleTraces,
			params: []string{"min_ms", "experiment", "limit"},
			desc:   "recent request traces, newest first"},
		{method: "GET", pattern: "/v1/healthz", h: s.handleLiveness,
			desc: "liveness: 200 while accepting work, 503 once draining"},
		{method: "GET", pattern: "/healthz", h: s.handleHealthz,
			desc: "plain-text liveness probe"},
		{method: "GET", pattern: "/metrics", raw: true, h: s.handleMetrics,
			desc: "Prometheus text exposition"},
	}
	if s.cfg.Insight != nil {
		routes = append(routes,
			routeDef{method: "GET", pattern: "/v1/accuracy", h: s.handleAccuracy,
				desc: "analytic-vs-exact drift totals and worst offenders"})
	}
	return routes
}

// newMux builds the mux from the route table. Everything else —
// unknown paths, and known paths with the wrong method (a
// method-mismatched request falls through to the "/" pattern) —
// answers the same error envelope as real handlers. It is a function
// of its own because ServeMux records each registration's caller with
// runtime.Caller, whose cost grows with the calling function's size:
// inside New it added ~25 µs to every server boot.
func (s *Server) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range s.routes {
		if rt.raw {
			mux.HandleFunc(rt.method+" "+rt.pattern, rt.h)
			continue
		}
		mux.HandleFunc(rt.method+" "+rt.pattern, s.instrument(rt.pattern, rt.traced, strictQuery(rt.params, rt.h)))
	}
	mux.HandleFunc("/", s.instrument("fallback", false, s.handleFallback))
	return mux
}

// strictQuery wraps a route's handler so it only ever sees the query
// parameters the route lists, each at most once and never present but
// empty: anything else answers 400/bad_options before h runs, so a
// typo fails loudly instead of silently reading as a default.
func strictQuery(params []string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var err error
		for k, vs := range q {
			if !slices.Contains(params, k) {
				valid := "this endpoint takes no query parameters"
				if len(params) > 0 {
					valid = "valid: " + strings.Join(params, ", ")
				}
				err = fmt.Errorf("unknown query parameter %q (%s)", k, valid)
				break
			}
			if len(vs) > 1 {
				err = fmt.Errorf("query parameter %q given %d times, want at most once", k, len(vs))
				break
			}
		}
		if err == nil {
			err = noEmptyParams(q)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
			return
		}
		h(w, r)
	}
}

// patternMatches reports whether path matches the ServeMux pattern,
// treating {x} segments as single-segment wildcards.
func patternMatches(pattern, path string) bool {
	ps := strings.Split(pattern, "/")
	xs := strings.Split(path, "/")
	if len(ps) != len(xs) {
		return false
	}
	for i := range ps {
		if strings.HasPrefix(ps[i], "{") && strings.HasSuffix(ps[i], "}") {
			if xs[i] == "" {
				return false
			}
			continue
		}
		if ps[i] != xs[i] {
			return false
		}
	}
	return true
}

// handleFallback answers everything the explicit routes did not: a
// known path requested with the wrong method gets 405 with an Allow
// header (the mux routes method mismatches here because the catch-all
// "/" pattern matches them), and an unknown path gets 404 — both in
// the same error envelope every other endpoint uses.
func (s *Server) handleFallback(w http.ResponseWriter, r *http.Request) {
	var allowed []string
	for _, rt := range s.routes {
		if !patternMatches(rt.pattern, r.URL.Path) {
			continue
		}
		dup := false
		for _, m := range allowed {
			dup = dup || m == rt.method
		}
		if !dup {
			allowed = append(allowed, rt.method)
		}
	}
	if len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			fmt.Sprintf("method %s is not allowed for %s (allowed: %s)",
				r.Method, r.URL.Path, strings.Join(allowed, ", ")), nil)
		return
	}
	writeError(w, http.StatusNotFound, codeNotFound,
		fmt.Sprintf("no such endpoint: %s %s (see GET /v1 for the API surface)",
			r.Method, r.URL.Path), nil)
}

// discoveryEndpoint is one row of the GET /v1 document.
type discoveryEndpoint struct {
	Method      string   `json:"method"`
	Path        string   `json:"path"`
	Params      []string `json:"params,omitempty"`
	Description string   `json:"description"`
}

// handleDiscovery is GET /v1: the machine-readable API surface,
// generated from the same table the mux was built from.
func (s *Server) handleDiscovery(w http.ResponseWriter, _ *http.Request) {
	eps := make([]discoveryEndpoint, 0, len(s.routes))
	for _, rt := range s.routes {
		eps = append(eps, discoveryEndpoint{
			Method:      rt.method,
			Path:        rt.pattern,
			Params:      rt.params,
			Description: rt.desc,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Service    string              `json:"service"`
		APIVersion string              `json:"api_version"`
		Endpoints  []discoveryEndpoint `json:"endpoints"`
	}{"spec17d", "v1", eps})
}
