package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The reference encodings a spliced response must equal byte for
// byte: the response as one value, with its result as the last field,
// encoded by writeJSON (envelopes) or by a line encoder (NDJSON).

// legacyExperimentResponse is the /v1/experiments/{id} body as one
// value.
type legacyExperimentResponse struct {
	experimentResponse
	Result any `json:"result"`
}

// legacyReportResponse is the /v1/report body as one value.
type legacyReportResponse struct {
	reportResponse
	Report any `json:"report"`
}

// legacyBatchLine is batchLine carrying its result as a value.
type legacyBatchLine struct {
	ID        string       `json:"id"`
	Status    string       `json:"status"`
	Engine    string       `json:"engine,omitempty"`
	Cached    bool         `json:"cached,omitempty"`
	TraceID   string       `json:"trace_id,omitempty"`
	ElapsedMS int64        `json:"elapsed_ms"`
	Result    any          `json:"result,omitempty"`
	Error     *errorDetail `json:"error,omitempty"`
}

// referenceBody is writeJSON's body for v.
func referenceBody(v any) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.String()
}

// splicedBody is writeResult's body.
func splicedBody(envelope any, field, body []byte) string {
	rec := httptest.NewRecorder()
	writeResult(rec, envelope, field, body)
	return rec.Body.String()
}

// referenceLine is the NDJSON line a lineWriter wrote for l when lines
// carried result values.
func referenceLine(l legacyBatchLine) string {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(l); err != nil {
		panic(err)
	}
	return buf.String()
}

// emittedLine is the NDJSON line a lineWriter writes for l.
func emittedLine(l batchLine) string {
	rec := httptest.NewRecorder()
	newLineWriter(rec).emit(l)
	return rec.Body.String()
}

// checkSpliced holds every response shape that carries v — both
// envelopes under each engine and every combination of the
// upgrade_pending, cached and coalesced flags, an untraced and a
// traced batch line — to its reference encoding.
func checkSpliced(t *testing.T, name string, v any) {
	t.Helper()
	body, err := encodeResult(context.Background(), v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, tier := range []engine.Tier{engine.TierExact, engine.TierAnalytic} {
		for flags := 0; flags < 8; flags++ {
			upgrading, cached, coalesced := flags&1 != 0, flags&2 != 0, flags&4 != 0
			env := experimentResponse{ID: name, Title: "Title <" + name + "> & co", Kind: "figure",
				Instructions: 20000, Warmup: 4000, Engine: string(tier),
				UpgradePending: upgrading, Cached: cached, Coalesced: coalesced}
			if got, want := splicedBody(env, resultField, body), referenceBody(legacyExperimentResponse{env, v}); got != want {
				t.Fatalf("%s %s flags %03b: experiment body\n%s\nwant\n%s", name, tier, flags, got, want)
			}
			rep := reportResponse{20000, 4000, string(tier), upgrading, cached, coalesced}
			if got, want := splicedBody(rep, reportField, body), referenceBody(legacyReportResponse{rep, v}); got != want {
				t.Fatalf("%s %s flags %03b: report body\n%s\nwant\n%s", name, tier, flags, got, want)
			}
		}
		for _, traceID := range []string{"", "4bf92f3577b34da6"} { // untraced, traced
			line := batchLine{ID: name, Status: "ok", Engine: string(tier), Cached: true,
				TraceID: traceID, ElapsedMS: 12, Result: body}
			ref := legacyBatchLine{ID: name, Status: "ok", Engine: string(tier), Cached: true,
				TraceID: traceID, ElapsedMS: 12, Result: v}
			if got, want := emittedLine(line), referenceLine(ref); got != want {
				t.Fatalf("%s %s trace %q: line\n%s\nwant\n%s", name, tier, traceID, got, want)
			}
		}
	}
}

// TestSplicedResponsesMatchEncoder: a response spliced from the cached
// bytes equals the one encoded from the value, for values holding what
// the encoder escapes or formats specially. The registry's own results
// are held to the same references in TestRegistrySplicedResponses.
func TestSplicedResponsesMatchEncoder(t *testing.T) {
	type row struct {
		Name  string
		Score float64
		Tags  []string          `json:",omitempty"`
		Extra map[string]string `json:"extra"`
	}
	for name, v := range map[string]any{
		"html":       map[string]any{"html": "<a&b>", "x": []float64{1.5, 2, 1e-9, 1e21, -0.0}},
		"rows":       []row{{Name: "500.perlbench_r", Score: 0.1 + 0.2}, {Name: "<&>", Tags: []string{"a"}, Extra: map[string]string{"k": ">"}}},
		"unicode":    "line sep \u2028 para sep \u2029 é \x01",
		"empty":      map[string]any{"a": []int{}, "m": map[string]int{}, "n": nil},
		"scalar":     42,
		"typed-nil":  (*row)(nil),
		"nested":     [][]any{{}, {1, "two", []any{}}, nil},
		"points":     []stats.Point{{X: 1, Y: -2.5}},
		"empty-list": []string{},
	} {
		// An envelope write that fails keeps its encoder out of the
		// pool, so the references that follow stay whole.
		writeResult(failingWriter{httptest.NewRecorder()}, experimentResponse{}, resultField, []byte("1"))
		checkSpliced(t, name, v)
	}
}

// TestNullResultLine pins the one shape that changed: an untyped nil
// result was left out of an NDJSON line by the result field's
// omitempty, and is now written as null, the way a typed nil result
// always was. The envelopes carry null either way.
func TestNullResultLine(t *testing.T) {
	body, err := encodeResult(context.Background(), nil)
	if err != nil || string(body) != "null" {
		t.Fatalf("encodeResult(nil) = %q, %v", body, err)
	}
	got := emittedLine(batchLine{ID: "x", Status: "ok", Result: body})
	if want := `{"id":"x","status":"ok","elapsed_ms":0,"result":null}` + "\n"; got != want {
		t.Errorf("null result line = %q, want %q", got, want)
	}
	if want := referenceLine(legacyBatchLine{ID: "x", Status: "ok", Result: (*int)(nil)}); got != want {
		t.Errorf("null result line = %q, typed nil reference %q", got, want)
	}
	if old := referenceLine(legacyBatchLine{ID: "x", Status: "ok"}); strings.Contains(old, "result") {
		t.Errorf("untyped nil reference %q carries a result field", old)
	}
	// Error lines carry no result at all.
	if got := emittedLine(batchLine{ID: "x", Status: "error", Error: &errorDetail{Code: codeInternal}}); strings.Contains(got, "result") {
		t.Errorf("error line %q carries a result field", got)
	}
	env := experimentResponse{ID: "x"}
	if got, want := splicedBody(env, resultField, body), referenceBody(legacyExperimentResponse{env, nil}); got != want {
		t.Errorf("null experiment body\n%s\nwant\n%s", got, want)
	}
}

// TestUnencodableResultIs500: a result encoding/json refuses (NaN)
// fails its request with a 500 internal envelope and is not cached.
// writeJSON commits the 200 status line before it encodes, so when
// hits encoded the value, the same result answered 200 with an empty
// body, cached for good.
func TestUnencodableResultIs500(t *testing.T) {
	bad := map[string]float64{"x": math.NaN()}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, bad)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("writeJSON of NaN: %d %q, want the old 200 with an empty body", rec.Code, rec.Body)
	}

	s, _ := newTestServer(Config{})
	var computations int
	s.compute = func(context.Context, string, machine.RunOptions, engine.Tier, bool) (any, error) {
		computations++ // requests here are sequential
		return bad, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		code, body := get(t, ts, "/v1/experiments/table1")
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("request %d: %d %q: %v", i, code, body, err)
		}
		if code != http.StatusInternalServerError || env.Error.Code != codeInternal ||
			!strings.Contains(env.Error.Message, "NaN") {
			t.Fatalf("request %d: %d %+v, want 500 internal naming NaN", i, code, env.Error)
		}
	}
	if computations != 2 {
		t.Errorf("computations = %d, want 2: a failed encode must not be cached", computations)
	}
	if n := metricValue(t, ts, "spec17d_cache_entries"); n != 0 {
		t.Errorf("cache entries = %v, want 0", n)
	}
	_, body := get(t, ts, "/v1/batch?experiments=table2")
	l := decodeBatchLine(t, strings.TrimSpace(string(body)))
	if l.Status != "error" || l.Error == nil || l.Error.Code != codeInternal || l.Result != nil {
		t.Errorf("batch line %s: want an internal error line with no result", body)
	}
}

// TestEncodeSpan: a traced computation records one "encode" span under
// the request's root, carrying the encoded size; a cache hit encodes
// nothing and records none.
func TestEncodeSpan(t *testing.T) {
	s := newTracedServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if code, body := get(t, ts, "/v1/experiments/table1"); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	traces := s.cfg.Tracer.Traces(telemetry.Filter{})
	if len(traces) != 2 {
		t.Fatalf("%d traces, want 2", len(traces))
	}
	encodes := func(tr *telemetry.TraceData) []telemetry.SpanData {
		var out []telemetry.SpanData
		for _, c := range tr.Root.Children {
			if c.Name == "encode" {
				out = append(out, c)
			}
		}
		return out
	}
	// Newest first: the hit, then the computation.
	if hit := encodes(traces[0]); len(hit) != 0 {
		t.Errorf("cache hit recorded %d encode spans", len(hit))
	}
	miss := encodes(traces[1])
	if len(miss) != 1 {
		t.Fatalf("computation recorded %d encode spans, want 1", len(miss))
	}
	want, _ := encodeResult(context.Background(), map[string]any{"id": "table1", "instructions": machine.RunOptions{}.Canonical().Instructions})
	if got := miss[0].Attrs["bytes"]; got != fmt.Sprint(len(want)) {
		t.Errorf("encode span bytes = %q, want %d", got, len(want))
	}
}

// discardResponse is a ResponseWriter that keeps only the body size.
type discardResponse struct {
	hdr   http.Header
	bytes int
}

func (w *discardResponse) Header() http.Header { return w.hdr }
func (w *discardResponse) WriteHeader(int)     {}
func (w *discardResponse) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// cannedTable is shaped like table1's result: 43 rows of a name and
// six figures.
func cannedTable() any {
	type row struct {
		Name                                       string
		Suite                                      string
		ICountB, PctLoad, PctStore, PctBranch, CPI float64
	}
	rows := make([]row, 43)
	for i := range rows {
		f := float64(i + 1)
		rows[i] = row{fmt.Sprintf("5%02d.bench_r", i), "rate-int",
			math.Sqrt(f) * 1e3, 1 / f, math.Sin(f), math.Cos(f), math.Log(f + 1)}
	}
	return rows
}

// cannedScatter is shaped like fig10's result, ~220 KB indented: two
// PC-space scatters, each with its points and a scores and a loadings
// matrix of full-precision figures.
func cannedScatter() any {
	type scatter struct {
		Labels   []string
		Points   []stats.Point
		Scores   [][]float64
		Loadings [][]float64
	}
	mat := func(r, c int, seed float64) [][]float64 {
		m := make([][]float64, r)
		for i := range m {
			m[i] = make([]float64, c)
			for j := range m[i] {
				m[i][j] = math.Sin(seed + float64(i*c+j))
			}
		}
		return m
	}
	sc := func(seed float64) scatter {
		s := scatter{Scores: mat(43, 40, seed), Loadings: mat(40, 40, seed+1)}
		for i := 0; i < 43; i++ {
			s.Labels = append(s.Labels, fmt.Sprintf("5%02d.bench_s", i))
			s.Points = append(s.Points, stats.Point{X: math.Cos(seed + float64(i)), Y: math.Sin(seed - float64(i))})
		}
		return s
	}
	return struct{ DCache, ICache scatter }{sc(1), sc(2)}
}

// BenchmarkCachedExperiment times result-cache hits through the whole
// handler — routing, instrumentation, admission, the LRU lookup and
// writing the response — for a table1-sized and a fig10-sized result.
func BenchmarkCachedExperiment(b *testing.B) {
	for _, c := range []struct {
		id string
		v  any
	}{{"table1", cannedTable()}, {"fig10", cannedScatter()}} {
		b.Run(c.id, func(b *testing.B) {
			s := New(Config{Log: telemetry.NewLogger(io.Discard, slog.LevelInfo)})
			s.compute = func(context.Context, string, machine.RunOptions, engine.Tier, bool) (any, error) {
				return c.v, nil
			}
			h := s.Handler()
			req := httptest.NewRequest(http.MethodGet, "/v1/experiments/"+c.id+"?engine=analytic", nil)
			w := &discardResponse{hdr: http.Header{}}
			h.ServeHTTP(w, req) // the miss that fills the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.bytes = 0
				h.ServeHTTP(w, req)
			}
			b.ReportMetric(float64(w.bytes)/1024, "body_KB")
		})
	}
}
