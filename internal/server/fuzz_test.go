package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/engine"
)

// FuzzParseRunOptions feeds raw query strings to parseRunOptions. It
// must never panic. A query it accepts passes checkFidelity, names a
// known tier or none, and canonicalizes to a fixed point. A query it
// rejects answers GET /v1/experiments/table1 with 400 bad_options.
// Seeds live in testdata/fuzz/FuzzParseRunOptions; `make fuzz` runs
// the target for a bounded time.
func FuzzParseRunOptions(f *testing.F) {
	s, computations := newTestServer(Config{JobsDisabled: true})
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: "/v1/experiments/table1", RawQuery: raw},
			Header: http.Header{},
		}
		opts, tier, err := parseRunOptions(r)
		if err == nil {
			if err := checkFidelity(opts); err != nil {
				t.Fatalf("accepted %q but checkFidelity(%+v) = %v", raw, opts, err)
			}
			if tier != "" {
				if _, err := engine.ParseTier(string(tier)); err != nil {
					t.Fatalf("accepted %q with tier %q: %v", raw, tier, err)
				}
			}
			if c := opts.Canonical(); c.Canonical() != c {
				t.Fatalf("%q: Canonical is not idempotent: %+v then %+v", raw, c, c.Canonical())
			}
			return
		}
		before := computations.Load()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		var e errorEnvelope
		if derr := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusBadRequest || derr != nil || e.Error.Code != codeBadOptions {
			t.Fatalf("%q rejected (%v) but answered %d %q (decode err %v)", raw, err, w.Code, e.Error.Code, derr)
		}
		if computations.Load() != before {
			t.Fatalf("%q: a rejected request computed", raw)
		}
	})
}
