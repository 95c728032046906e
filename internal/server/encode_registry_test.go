//go:build !race

package server

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// TestRegistrySplicedResponses runs every registry experiment and the
// report on an analytic Lab at sampled fidelity, and holds each
// response built from the cached bytes — the envelopes and a batch
// stream's lines — to the reference encoding of the value the
// computation returned.
//
// Excluded from -race builds: the registry's analyses take minutes
// under the race detector. TestSplicedResponsesMatchEncoder runs the
// same references under -race on small values.
func TestRegistrySplicedResponses(t *testing.T) {
	if testing.Short() {
		t.Skip("a registry sweep on the analytic engine (~3s)")
	}
	s := New(Config{Log: telemetry.NewLogger(io.Discard, slog.LevelInfo)})
	defer s.Close()
	var mu sync.Mutex
	values := map[string]any{}
	inner := s.compute
	s.compute = func(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, background bool) (any, error) {
		v, err := inner(ctx, id, opts, tier, background)
		mu.Lock()
		values[id] = v
		mu.Unlock()
		return v, err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const q = "instructions=20000&warmup=4000&engine=analytic"
	canon := machine.RunOptions{Instructions: 20000, WarmupInstructions: 4000}.Canonical()
	for _, d := range experiments.Registry() {
		for _, cached := range []bool{false, true} {
			code, body := get(t, ts, "/v1/experiments/"+d.ID+"?"+q)
			if code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", d.ID, code, body)
			}
			want := referenceBody(legacyExperimentResponse{experimentResponse{
				ID: d.ID, Title: d.Title, Kind: d.Kind,
				Instructions: canon.Instructions, Warmup: canon.WarmupInstructions,
				Engine: string(engine.TierAnalytic), Cached: cached,
			}, values[d.ID]})
			if string(body) != want {
				t.Fatalf("%s (cached %v): spliced body differs from the encoded value\n%s\nwant\n%s",
					d.ID, cached, body, want)
			}
		}
		checkSpliced(t, d.ID, values[d.ID])
	}

	code, body := get(t, ts, "/v1/report?"+q)
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, body)
	}
	want := referenceBody(legacyReportResponse{reportResponse{canon.Instructions, canon.WarmupInstructions,
		string(engine.TierAnalytic), false, false, false}, values[reportID]})
	if string(body) != want {
		t.Fatalf("report: spliced body differs from the encoded value (%d vs %d bytes)", len(body), len(want))
	}

	code, body = get(t, ts, "/v1/batch?experiments=all&"+q)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	for _, raw := range strings.SplitAfter(string(body), "\n") {
		if raw == "" {
			continue
		}
		l := decodeBatchLine(t, raw)
		ref := legacyBatchLine{ID: l.ID, Status: l.Status, Engine: l.Engine, Cached: l.Cached,
			TraceID: l.TraceID, ElapsedMS: l.ElapsedMS, Result: values[l.ID]}
		if l.Status != "ok" || raw != referenceLine(ref) {
			t.Fatalf("batch line for %s differs from the encoded value:\n%s", l.ID, raw)
		}
	}
}
