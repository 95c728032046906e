package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/server/api"
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
	// the server's BatchConcurrency are clamped down to it.
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
	TraceID   string       `json:"trace_id,omitempty"`
	ElapsedMS int64        `json:"elapsed_ms"`
	Result    any          `json:"result,omitempty"`
	Error     *errorDetail `json:"error,omitempty"`
}

// lineWriter serializes NDJSON result lines onto one response,
// flushing after each so clients see lines as they complete. Shared
// by the batch stream and the job-results endpoint, so both emit the
// same bytes for the same results.
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

// parseBatchRequest extracts a batchRequest from either encoding. The
// ResponseWriter is needed because MaxBytesReader uses it to close the
// connection when the body limit trips (passing nil would panic there
// in newer net/http, and silently skip the close in older ones); an
// oversized body surfaces as *http.MaxBytesError for the caller to map
// to 413.
func parseBatchRequest(w http.ResponseWriter, r *http.Request) (batchRequest, error) {
	var req batchRequest
	if r.Method == http.MethodPost {
		if len(r.URL.RawQuery) > 0 {
			return req, fmt.Errorf("POST /v1/batch takes a JSON body, not query parameters")
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, fmt.Errorf("decoding batch body: %w", err)
		}
		return req, nil
	}
	q := r.URL.Query()
	for k := range q {
		switch k {
		case "experiments", "instructions", "warmup", "concurrency", "engine":
		default:
			return req, fmt.Errorf("unknown query parameter %q (valid: experiments, instructions, warmup, concurrency, engine)", k)
		}
	}
	// Present-but-empty (?engine=, ?instructions=) is rejected, not
	// silently mapped to the server default.
	if err := api.NoEmptyParams(q); err != nil {
		return req, err
	}
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
				return req, fmt.Errorf("%s=%q: must be an integer", f.name, v)
			}
			*f.dst = n
		}
	}
	return req, nil
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
	req, err := parseBatchRequest(w, r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Sprintf("batch body exceeds the %d-byte limit", tooLarge.Limit), nil)
			return
		}
		writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
		return
	}
	ids, err := resolveBatchIDs(req.Experiments)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeUnknownExperiment, err.Error(), experiments.SortedIDs())
		return
	}
	opts := machine.RunOptions{Instructions: req.Instructions, WarmupInstructions: req.Warmup}
	if err := validateBatchOptions(opts); err != nil {
		writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
		return
	}
	reqTier := s.cfg.DefaultEngine
	if req.Engine != "" {
		t, err := engine.ParseTier(req.Engine)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
			return
		}
		reqTier = t
	}
	conc := s.cfg.BatchConcurrency
	if req.Concurrency > 0 && req.Concurrency < conc {
		conc = req.Concurrency
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
		slots = make(chan struct{}, conc)
		ctx   = r.Context()
	)
	emit := lw.emit
	for _, id := range ids {
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
			itemCost := admission.Cost(opts.Instructions, 1)
			if reqTier == engine.TierAnalytic || reqTier == engine.TierAuto {
				itemCost /= analyticCostDivisor
			}
			if dec := s.adm.Admit(clientKey(r), itemCost); !dec.OK {
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
			tier, upgrade := s.resolveTier(id, opts, reqTier)
			if upgrade {
				s.queueUpgrade(id, opts)
			}
			s.met.engineServed.With(string(tier)).Inc()
			ictx, isp := s.cfg.Tracer.StartTrace(ctx, "batch.item", "",
				"experiment", id, "engine", string(tier),
				"parent_trace", telemetry.FromContext(ctx).TraceID())
			val, cached, _, err := s.fetch(ictx, id, opts, tier, false)
			isp.End()
			elapsed := time.Since(start)
			s.met.batchItems.With(id).Observe(elapsed.Seconds())
			line := batchLine{ID: id, Status: "ok", Engine: string(tier), Cached: cached,
				TraceID: isp.TraceID(), ElapsedMS: elapsed.Milliseconds()}
			if err != nil {
				s.cfg.Log.Warn("batch item failed", "experiment", id, "err", err)
				code := codeInternal
				switch {
				case errors.Is(err, sched.ErrQueueFull):
					s.adm.CountRejection(admission.ReasonQueueFull)
					code = codeTooManyRequests
				case errors.Is(err, sched.ErrQueueTimeout):
					s.adm.CountRejection(admission.ReasonQueueTimeout)
					code = codeTooManyRequests
				case flight.IsCanceled(err):
					code = codeCanceled
					if r.Context().Err() == context.DeadlineExceeded {
						code = codeDeadlineExceeded
					}
				}
				line = batchLine{ID: id, Status: "error", TraceID: isp.TraceID(),
					ElapsedMS: elapsed.Milliseconds(),
					Error:     &errorDetail{Code: code, Message: err.Error()}}
			} else {
				line.Result = val
			}
			emit(line)
		}(id)
	}
	wg.Wait()
}

// validateBatchOptions applies the same fidelity limits as the
// per-experiment endpoint to a body-decoded request.
func validateBatchOptions(opts machine.RunOptions) error {
	if opts.Instructions > maxInstructions {
		return fmt.Errorf("instructions=%d exceeds the maximum %d", opts.Instructions, maxInstructions)
	}
	if opts.WarmupInstructions > maxInstructions {
		return fmt.Errorf("warmup=%d exceeds the maximum %d", opts.WarmupInstructions, maxInstructions)
	}
	return opts.Validate()
}
