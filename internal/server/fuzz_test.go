package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// FuzzParseRunOptions feeds raw query strings to parseRunOptions. It
// must never panic. A query it accepts passes checkFidelity, names a
// known tier or none, and canonicalizes to a fixed point. A query it
// rejects answers GET /v1/experiments/table1 with 400 bad_options.
// Seeds live in testdata/fuzz/FuzzParseRunOptions; `make fuzz` runs
// the target for a bounded time.
func FuzzParseRunOptions(f *testing.F) {
	s, computations := newTestServer(Config{})
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

// FuzzBatchBody feeds raw POST /v1/batch bodies to decodeBody and then
// checkSweep, the path every batch submission takes. It must
// never panic. A body either is answered with a 400 or 413 in the
// error envelope, or becomes a sweep of registry ids, at most
// maxBatchExperiments of them, at a concurrency in [1,
// BatchConcurrency] and a fidelity checkFidelity accepts. Seeds live
// in testdata/fuzz/FuzzBatchBody; `make fuzz` runs the target for a
// bounded time.
func FuzzBatchBody(f *testing.F) {
	s, _ := newTestServer(Config{})
	defer s.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		var req batchRequest
		var sw sweep
		ok := decodeBody(w, r, "batch", maxBatchBodyBytes, &req)
		if ok {
			sw, ok = s.checkSweep(w, req)
		}
		if !ok {
			var e errorEnvelope
			if derr := json.Unmarshal(w.Body.Bytes(), &e); (w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge) ||
				derr != nil || e.Error.Code == "" {
				t.Fatalf("%q rejected with %d %q (decode err %v)", body, w.Code, w.Body.Bytes(), derr)
			}
			return
		}
		if len(sw.ids) == 0 || len(sw.ids) > maxBatchExperiments {
			t.Fatalf("%q: accepted %d ids", body, len(sw.ids))
		}
		for _, id := range sw.ids {
			if _, ok := experiments.Lookup(id); !ok {
				t.Fatalf("%q: accepted unknown id %q", body, id)
			}
		}
		if sw.conc < 1 || sw.conc > s.cfg.BatchConcurrency {
			t.Fatalf("%q: concurrency %d outside [1, %d]", body, sw.conc, s.cfg.BatchConcurrency)
		}
		if err := checkFidelity(sw.opts); err != nil {
			t.Fatalf("%q: accepted fidelity %+v: %v", body, sw.opts, err)
		}
	})
}
