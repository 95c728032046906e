package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestWrongMethodEveryRoute hits every registered route with a method
// it does not serve and requires the uniform treatment: 405, an Allow
// header listing what would have worked, and the standard error
// envelope — never the stdlib's bare text response.
func TestWrongMethodEveryRoute(t *testing.T) {
	s, _ := newTestServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// allowed[pattern] = set of methods the route table registers.
	allowed := map[string]map[string]bool{}
	for _, rt := range s.routes {
		if allowed[rt.pattern] == nil {
			allowed[rt.pattern] = map[string]bool{}
		}
		allowed[rt.pattern][rt.method] = true
	}
	pool := []string{"DELETE", "POST", "PUT", "PATCH", "GET"}

	for pattern, methods := range allowed {
		path := strings.ReplaceAll(pattern, "{id}", "table1")
		var wrong string
		for _, m := range pool {
			if !methods[m] {
				wrong = m
				break
			}
		}
		req, err := http.NewRequest(wrong, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", wrong, path, err)
		}
		var e errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", wrong, path, resp.StatusCode)
			continue
		}
		if err != nil {
			t.Errorf("%s %s: body is not the error envelope: %v", wrong, path, err)
			continue
		}
		if e.Error.Code != "method_not_allowed" {
			t.Errorf("%s %s: code %q, want method_not_allowed", wrong, path, e.Error.Code)
		}
		hdr := resp.Header.Get("Allow")
		for m := range methods {
			if !strings.Contains(hdr, m) {
				t.Errorf("%s %s: Allow %q missing %s", wrong, path, hdr, m)
			}
		}
	}
}

// TestNotFoundEnvelope: unknown paths get the envelope too, pointing
// at the discovery document. The async-job routes and the anomaly-event
// route are gone, so they are unknown paths like any other, even with
// the drift monitor wired.
func TestNotFoundEnvelope(t *testing.T) {
	s, _ := newInsightTestServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct{ method, path string }{
		{"GET", "/v1/nope"}, {"GET", "/nope"}, {"GET", "/v1/jobs/x/y/z"},
		{"POST", "/v1/jobs"}, {"GET", "/v1/jobs/x"}, {"GET", "/v1/events"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(`{"experiments":["table1"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
			continue
		}
		var e errorEnvelope
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s %s: body is not the error envelope: %s", tc.method, tc.path, body)
			continue
		}
		if e.Error.Code != "not_found" {
			t.Errorf("%s %s: code %q, want not_found", tc.method, tc.path, e.Error.Code)
		}
	}
}

// TestDiscoveryDocument: GET /v1 describes exactly the route table.
func TestDiscoveryDocument(t *testing.T) {
	s, _ := newTestServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var doc struct {
		Service    string `json:"service"`
		APIVersion string `json:"api_version"`
		Endpoints  []struct {
			Method string `json:"method"`
			Path   string `json:"path"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Service != "spec17d" || doc.APIVersion != "v1" {
		t.Errorf("service/api_version = %q/%q", doc.Service, doc.APIVersion)
	}
	if len(doc.Endpoints) != len(s.routes) {
		t.Fatalf("discovery lists %d endpoints, route table has %d", len(doc.Endpoints), len(s.routes))
	}
	for i, rt := range s.routes {
		if doc.Endpoints[i].Method != rt.method || doc.Endpoints[i].Path != rt.pattern {
			t.Errorf("endpoint %d = %s %s, want %s %s",
				i, doc.Endpoints[i].Method, doc.Endpoints[i].Path, rt.method, rt.pattern)
		}
	}
}

// TestCatalogPagination: ?limit=/?offset= window the catalog and
// X-Total-Count always carries the full size.
func TestCatalogPagination(t *testing.T) {
	s, _ := newTestServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	all := experiments.IDs()
	resp, err := ts.Client().Get(ts.URL + "/v1/experiments?limit=2&offset=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if tc := resp.Header.Get("X-Total-Count"); tc != strconv.Itoa(len(all)) {
		t.Errorf("X-Total-Count = %q, want %d", tc, len(all))
	}
	var got struct {
		Total       int `json:"total"`
		Count       int `json:"count"`
		Offset      int `json:"offset"`
		Experiments []struct {
			ID string `json:"id"`
		} `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Total != len(all) || got.Count != 2 || got.Offset != 1 {
		t.Fatalf("total/count/offset = %d/%d/%d, want %d/2/1", got.Total, got.Count, got.Offset, len(all))
	}
	for i, e := range got.Experiments {
		if e.ID != all[1+i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, all[1+i])
		}
	}

	// Offset past the end is an empty page, not an error.
	code, body := get(t, ts, "/v1/experiments?offset=9999")
	if code != http.StatusOK {
		t.Fatalf("offset past end: status %d", code)
	}
	var past struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &past); err != nil {
		t.Fatal(err)
	}
	if past.Count != 0 {
		t.Errorf("offset past end: count = %d, want 0", past.Count)
	}

	for _, bad := range []string{"?limit=-1", "?limit=x", "?offset=-2", "?page=1"} {
		code, body := get(t, ts, "/v1/experiments"+bad)
		if code != http.StatusBadRequest {
			t.Errorf("GET /v1/experiments%s: status %d, want 400 (body %s)", bad, code, body)
		}
	}
}

// TestEmptyParamRejected: a query parameter that is present but empty
// is a client mistake everywhere — before this check, /v1/traces
// ?experiment= silently matched nothing while ?engine= was a 400,
// depending on the endpoint. Now every endpoint answers the same 400.
func TestEmptyParamRejected(t *testing.T) {
	s, computations := newTestServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/v1/traces?experiment=",
		"/v1/traces?min_ms=",
		"/v1/experiments?limit=",
		"/v1/experiments/table1?instructions=",
		"/v1/experiments/table1?warmup=",
		"/v1/report?instructions=",
		"/v1/batch?experiments=table1&concurrency=",
	} {
		code, body := get(t, ts, path)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400 (body %s)", path, code, body)
			continue
		}
		if !strings.Contains(string(body), "present but empty") {
			t.Errorf("GET %s: body %s does not explain the empty parameter", path, body)
		}
		var e errorEnvelope
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
			t.Errorf("GET %s: body is not the error envelope: %s", path, body)
		}
	}
	if n := computations.Load(); n != 0 {
		t.Errorf("empty-param requests started %d computations, want 0", n)
	}
}

// TestStrictQueryEveryRoute: every route the instrument wrapper serves
// rejects an unknown, a duplicated and a present-but-empty query
// parameter with 400/bad_options before its handler runs — including
// routes that take no parameters at all, and the repeated-experiments
// batch that once streamed only its first list.
func TestStrictQueryEveryRoute(t *testing.T) {
	s, computations := newInsightTestServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type probe struct{ method, path string }
	var probes []probe
	for _, rt := range s.routes {
		if rt.raw {
			continue
		}
		path := strings.ReplaceAll(rt.pattern, "{id}", "table1")
		p := "bogus"
		if len(rt.params) > 0 {
			p = rt.params[0]
		}
		for _, q := range []string{"bogus=1", p + "=1&" + p + "=2", p + "="} {
			probes = append(probes, probe{rt.method, path + "?" + q})
		}
	}
	probes = append(probes,
		probe{"GET", "/v1/batch?experiments=table1&experiments=table2"},
		probe{"GET", "/v1/traces?limit=1&limit=2"},
	)
	for _, pr := range probes {
		req, err := http.NewRequest(pr.method, ts.URL+pr.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", pr.method, pr.path, err)
		}
		var e errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || e.Error.Code != "bad_options" {
			t.Errorf("%s %s: status %d code %q (decode err %v), want 400 bad_options",
				pr.method, pr.path, resp.StatusCode, e.Error.Code, err)
		}
	}
	if n := computations.Load(); n != 0 {
		t.Errorf("rejected requests started %d computations, want 0", n)
	}
}
