package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// maxBatchExperiments bounds one batch submission. The full registry
// is well under this; the cap exists so a malformed request cannot
// queue unbounded work.
const maxBatchExperiments = 256

// maxBatchBodyBytes bounds the POST /v1/batch body.
const maxBatchBodyBytes = 1 << 20

// batchRequest is the POST /v1/batch body. GET encodes the same
// fields as query parameters (experiments as a comma-separated list).
type batchRequest struct {
	// Experiments lists the experiment ids to evaluate; the single
	// element "all" expands to the full registry. Duplicates collapse
	// to one evaluation (and one result line).
	Experiments []string `json:"experiments"`
	// Instructions and Warmup select the fidelity, as in
	// /v1/experiments/{id}.
	Instructions int `json:"instructions,omitempty"`
	Warmup       int `json:"warmup,omitempty"`
	// Concurrency caps how many of this batch's experiments are
	// evaluated at once. Zero means the server default; values above
	// the server's BatchConcurrency are clamped down to it; negative
	// values are rejected.
	Concurrency int `json:"concurrency,omitempty"`
	// Engine selects the measurement engine tier (exact, analytic, or
	// auto) for every item. Empty means the server default.
	Engine string `json:"engine,omitempty"`
}

// batchLine is one NDJSON result line, written in completion order.
type batchLine struct {
	ID     string `json:"id"`
	Status string `json:"status"` // "ok" or "error"
	// Engine is the concrete tier that produced this line (auto
	// resolves per item, so one batch may mix tiers as upgrades land).
	Engine string `json:"engine,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// TraceID names the per-item trace (a child trace of the batch
	// request, linked via its parent_trace attribute) so one slow line
	// can be looked up in /v1/traces directly. Omitted when tracing is
	// disabled.
	TraceID   string `json:"trace_id,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
	// Result is the cached encoded result; the line's encoder compacts
	// it, which gives exactly json.Marshal's bytes for the value.
	Result json.RawMessage `json:"result,omitempty"`
	Error  *errorDetail    `json:"error,omitempty"`
}

// lineWriter serializes NDJSON result lines onto one response,
// flushing after each so clients see lines as they complete.
type lineWriter struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	f, _ := w.(http.Flusher)
	return &lineWriter{enc: json.NewEncoder(w), flusher: f}
}

func (lw *lineWriter) emit(line batchLine) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if err := lw.enc.Encode(line); err != nil {
		return // client gone; ctx cancellation stops the rest
	}
	lw.flushLocked()
}

func (lw *lineWriter) flush() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.flushLocked()
}

func (lw *lineWriter) flushLocked() {
	if lw.flusher != nil {
		lw.flusher.Flush()
	}
}

// decodeBody decodes r's body into v: exactly one JSON value, of at
// most limit bytes, with no unknown fields and nothing after it but
// white space. On failure it answers the request itself, naming the
// body what: 413 body_too_large if the body exceeds limit, else 400
// bad_options. The ResponseWriter is needed because MaxBytesReader
// uses it to close the connection when the limit trips.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Sprintf("%s body exceeds the %d-byte limit", what, tooLarge.Limit), nil)
		return false
	}
	writeError(w, http.StatusBadRequest, codeBadOptions, fmt.Sprintf("decoding %s body: %v", what, err), nil)
	return false
}

// parseBatchRequest extracts a batchRequest from either encoding. On
// failure it answers the request itself and returns false. The route
// wrapper has already vetted the query: POST takes none.
func parseBatchRequest(w http.ResponseWriter, r *http.Request) (batchRequest, bool) {
	var req batchRequest
	if r.Method == http.MethodPost {
		return req, decodeBody(w, r, "batch", maxBatchBodyBytes, &req)
	}
	q := r.URL.Query()
	req.Engine = q.Get("engine")
	for _, part := range strings.Split(q.Get("experiments"), ",") {
		if part = strings.TrimSpace(part); part != "" {
			req.Experiments = append(req.Experiments, part)
		}
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"instructions", &req.Instructions},
		{"warmup", &req.Warmup},
		{"concurrency", &req.Concurrency},
	} {
		if v := q.Get(f.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, codeBadOptions, fmt.Sprintf("%s=%q: must be an integer", f.name, v), nil)
				return req, false
			}
			*f.dst = n
		}
	}
	return req, true
}

// resolveBatchIDs validates and deduplicates the requested ids,
// expanding the "all" shorthand. Order is preserved so the submission
// order (and therefore scheduler fairness) follows the request.
func resolveBatchIDs(ids []string) ([]string, error) {
	if len(ids) == 1 && ids[0] == "all" {
		return experiments.SortedIDs(), nil
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("batch lists no experiments (pass ids or \"all\")")
	}
	if len(ids) > maxBatchExperiments {
		return nil, fmt.Errorf("batch lists %d experiments, more than the maximum %d", len(ids), maxBatchExperiments)
	}
	var unknown []string
	seen := make(map[string]bool, len(ids))
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		if _, ok := experiments.Lookup(id); !ok {
			unknown = append(unknown, id)
			continue
		}
		out = append(out, id)
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiments: %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// sweep is a validated batch request.
type sweep struct {
	ids  []string
	opts machine.RunOptions
	tier engine.Tier // as requested; empty means the server default
	conc int         // items evaluated at once
}

// checkSweep validates a batch request — ids, fidelity limits,
// engine tier, concurrency — and clamps its concurrency to the
// server's BatchConcurrency. On failure it answers the 400 itself.
func (s *Server) checkSweep(w http.ResponseWriter, req batchRequest) (sweep, bool) {
	ids, err := resolveBatchIDs(req.Experiments)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeUnknownExperiment, err.Error(), experiments.SortedIDs())
		return sweep{}, false
	}
	sw := sweep{ids: ids, conc: s.cfg.BatchConcurrency,
		opts: machine.RunOptions{Instructions: req.Instructions, WarmupInstructions: req.Warmup}}
	err = checkFidelity(sw.opts)
	if err == nil && req.Engine != "" {
		sw.tier, err = engine.ParseTier(req.Engine)
	}
	if err == nil && req.Concurrency < 0 {
		err = fmt.Errorf("concurrency=%d: must be non-negative", req.Concurrency)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
		return sweep{}, false
	}
	if req.Concurrency > 0 {
		sw.conc = min(sw.conc, req.Concurrency)
	}
	return sw, true
}

// handleBatch streams the requested experiments as NDJSON: one
// {"id","status",...} line per experiment, flushed as each completes.
// Validation failures are rejected with a regular JSON error before
// any line is written; after streaming begins, per-experiment failures
// become status:"error" lines and the stream continues. Closing the
// connection cancels this batch's pending work — measurements shared
// with other requests keep running for them.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	req, ok := parseBatchRequest(w, r)
	if !ok {
		return
	}
	sw, ok := s.checkSweep(w, req)
	if !ok {
		return
	}

	s.met.batchInflight.Inc()
	defer s.met.batchInflight.Dec()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	lw := newLineWriter(w)
	// Push the status line and headers out now: clients see the
	// stream open as soon as the batch is accepted, not when its
	// first experiment completes.
	lw.flush()

	var (
		wg    sync.WaitGroup
		slots = make(chan struct{}, sw.conc)
		ctx   = r.Context()
	)
	emit := lw.emit
	for _, id := range sw.ids {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break // disconnected mid-batch; stop submitting
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			defer func() { <-slots }()
			start := time.Now()
			// Batch requests enter the admission gate at cost zero;
			// each item pays as the stream reaches it, so one saturated
			// client sheds individual lines while healthy items keep
			// streaming instead of the whole batch 429ing up front.
			if dec := s.adm.Admit(clientKey(r), s.price(sw.opts.Instructions, 1, sw.tier)); !dec.OK {
				emit(batchLine{ID: id, Status: "error",
					ElapsedMS: time.Since(start).Milliseconds(),
					Error: &errorDetail{Code: codeTooManyRequests,
						Message: "item shed: per-client rate limit exceeded"}})
				return
			}
			// Each item gets its own trace (nil tracer: no-op), so a
			// single slow experiment is findable in /v1/traces without
			// wading through the whole batch's tree. The parent_trace
			// attribute links it back to the batch request's trace.
			ictx, isp := s.cfg.Tracer.StartTrace(ctx, "batch.item", "",
				"experiment", id, "parent_trace", telemetry.FromContext(ctx).TraceID())
			res, err := s.serve(ictx, id, sw.opts, sw.tier, false)
			isp.End()
			elapsed := time.Since(start)
			s.met.batchItems.With(id).Observe(elapsed.Seconds())
			line := batchLine{ID: id, Status: "ok", Engine: string(res.tier), Cached: res.cached,
				TraceID: isp.TraceID(), ElapsedMS: elapsed.Milliseconds(), Result: res.body}
			if err != nil {
				s.cfg.Log.Warn("batch item failed", "experiment", id, "err", err)
				_, code := computeStatus(r, err)
				line = batchLine{ID: id, Status: "error", TraceID: isp.TraceID(),
					ElapsedMS: elapsed.Milliseconds(),
					Error:     &errorDetail{Code: code, Message: err.Error()}}
			}
			emit(line)
		}(id)
	}
	wg.Wait()
}
