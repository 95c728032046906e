package server

// The HTTP face of the async-job subsystem, plus the glue binding
// internal/jobs to the server's compute path: job items execute
// through the same fetch/cache/singleflight/scheduler machinery as
// interactive requests (so results are bit-identical and park in the
// store under normal keys), but on the capped background queue and
// under blocking per-client admission.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// maxJobBodyBytes bounds the POST /v1/jobs body.
const maxJobBodyBytes = 1 << 20

// sseKeepalive is the comment-ping interval on /v1/jobs/{id}/events,
// keeping idle streams alive through proxies between real events.
const sseKeepalive = 15 * time.Second

// exactSecondsPerCostToken converts admission cost tokens (one token =
// one experiment at default fidelity; see admission.Cost) into wall
// seconds for job ETAs: the exact_leaf entry of the
// committed BENCH_<n>.json snapshot, rounded up. Only an ETA prior —
// observed item times take over after the first completion.
const exactSecondsPerCostToken = 0.1

// estimateItemSeconds predicts one sweep item's execution time from
// the admission price runJobItem charges for it, scaled to seconds, so
// the ETA and the budget drain at the same rate.
func (s *Server) estimateItemSeconds(spec jobs.Spec) float64 {
	return s.price(spec.Instructions, 1, engine.Tier(spec.Engine)) * exactSecondsPerCostToken
}

// newJobManager builds the jobs manager wired to this server: items
// run through runJobItem (test-overridable via s.jobsRunner), each
// job gets a root job.run trace spanning the whole sweep, and job
// state checkpoints next to the measurement store's snapshot.
func (s *Server) newJobManager() {
	m, err := jobs.New(jobs.Config{
		Path:       s.cfg.JobsPath,
		MaxJobs:    s.cfg.MaxJobs,
		MaxRunning: s.cfg.JobWorkers,
		Runner: func(ctx context.Context, j jobs.Job, item string) error {
			return s.jobsRunner(ctx, j, item)
		},
		OnJobStart: func(ctx context.Context, j jobs.Job) (context.Context, func(jobs.State)) {
			// The job-root span: every item's trace links back to it via
			// parent_trace, so one slow sweep reads as one tree.
			ctx, sp := s.cfg.Tracer.StartTrace(ctx, "job.run", "job-"+j.ID,
				"job", j.ID, "items", strconv.Itoa(len(j.Items)))
			return ctx, func(final jobs.State) {
				if sp != nil {
					sp.SetAttr("final", string(final))
					sp.End()
				}
			}
		},
		EstimateItemSeconds: s.estimateItemSeconds,
		Metrics:             s.cfg.Metrics,
		Log:                 s.cfg.Log,
	})
	if err != nil {
		s.cfg.Log.Warn("jobs snapshot discarded", "err", err)
	}
	s.jobs = m
}

// runJobItem measures one sweep item through the ordinary fetch path.
// Background admission blocks (AdmitWait) instead of shedding: a job
// item has no client on the wire to retry, so it waits for the
// submitter's bucket to refill — which is exactly what throttles a
// registry-scale sweep below interactive traffic. The spec's engine
// was validated at submit; one corrupted in a restored snapshot fails
// the item in engine.New.
func (s *Server) runJobItem(ctx context.Context, j jobs.Job, item string) error {
	opts := machine.RunOptions{Instructions: j.Spec.Instructions, WarmupInstructions: j.Spec.Warmup}
	reqTier := engine.Tier(j.Spec.Engine)
	// A separate "jobs:" bucket namespace: the sweep spends a budget of
	// its own at the same refill rate, rather than draining the tokens
	// the submitter's interactive requests are counting on.
	if err := s.adm.AdmitWait(ctx, "jobs:"+j.Spec.Client, s.price(opts.Instructions, 1, reqTier)); err != nil {
		return err
	}
	ictx, isp := s.cfg.Tracer.StartTrace(ctx, "job.item", "",
		"experiment", item, "job", j.ID, "parent_trace", telemetry.FromContext(ctx).TraceID())
	_, err := s.serve(ictx, item, opts, reqTier, true)
	isp.End()
	return err
}

// handleJobSubmit is POST /v1/jobs: validate the sweep up front
// (its body is a batch request, validated the same way, so an unknown
// key is a 400), submit, answer 202 with the job record and a
// Location header. Completion is read by polling the job or streaming
// its events.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req batchRequest
	if !decodeBody(w, r, "job", maxJobBodyBytes, &req) {
		return
	}
	sw, ok := s.checkSweep(w, req)
	if !ok {
		return
	}

	j, err := s.jobs.Submit(jobs.Spec{
		Experiments:  sw.ids,
		Instructions: req.Instructions,
		Warmup:       req.Warmup,
		Engine:       req.Engine,
		Concurrency:  sw.conc,
		Client:       clientKey(r),
	})
	switch {
	case errors.Is(err, jobs.ErrTooManyJobs):
		writeShed(w, err.Error(), 0)
		return
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, codeDraining, err.Error(), nil)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
		return
	}
	if sp := telemetry.FromContext(r.Context()); sp != nil {
		sp.SetAttr("job", j.ID)
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j)
}

// handleJobList is GET /v1/jobs: every retained job, newest first,
// windowed by ?limit=/?offset= with X-Total-Count.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	page, err := parsePage(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
		return
	}
	all := s.jobs.List()
	lo, hi := page.window(len(all))
	w.Header().Set("X-Total-Count", strconv.Itoa(len(all)))
	writeJSON(w, http.StatusOK, struct {
		Total  int        `json:"total"`
		Count  int        `json:"count"`
		Offset int        `json:"offset"`
		Jobs   []jobs.Job `json:"jobs"`
	}{len(all), hi - lo, lo, all[lo:hi]})
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownJob,
			fmt.Sprintf("unknown job %q", r.PathValue("id")), nil)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// handleJobCancel is DELETE /v1/jobs/{id}: idempotent cancellation.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, codeUnknownJob,
			fmt.Sprintf("unknown job %q", r.PathValue("id")), nil)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// handleJobResults is GET /v1/jobs/{id}/results: the sweep's results
// as NDJSON in submission order, one line per item in the same shape
// /v1/batch streams. Results are re-fetched through the ordinary
// cache/store path, so the bytes equal what a batch request for the
// same inputs returns. A job still running answers 409 — stream the
// events endpoint instead, then come back.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownJob,
			fmt.Sprintf("unknown job %q", r.PathValue("id")), nil)
		return
	}
	if !j.State.Terminal() {
		writeError(w, http.StatusConflict, codeJobNotDone,
			fmt.Sprintf("job %s is %s; results are served once it reaches a terminal state", j.ID, j.State), nil)
		return
	}
	opts := machine.RunOptions{Instructions: j.Spec.Instructions, WarmupInstructions: j.Spec.Warmup}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	lw := newLineWriter(w)
	for _, it := range j.Items {
		start := time.Now()
		switch it.Status {
		case jobs.ItemDone:
			res, err := s.serve(r.Context(), it.ID, opts, engine.Tier(j.Spec.Engine), true)
			if err != nil {
				_, code := computeStatus(r, err)
				lw.emit(batchLine{ID: it.ID, Status: "error",
					ElapsedMS: time.Since(start).Milliseconds(),
					Error:     &errorDetail{Code: code, Message: err.Error()}})
				continue
			}
			lw.emit(batchLine{ID: it.ID, Status: "ok", Engine: string(res.tier),
				Cached: res.cached, ElapsedMS: time.Since(start).Milliseconds(), Result: res.body})
		case jobs.ItemError:
			lw.emit(batchLine{ID: it.ID, Status: "error",
				Error: &errorDetail{Code: codeInternal, Message: it.Error}})
		default:
			// Cancelled before this item ran.
			lw.emit(batchLine{ID: it.ID, Status: "error",
				Error: &errorDetail{Code: codeCanceled, Message: "item not run (job " + string(j.State) + ")"}})
		}
	}
}

// handleJobEvents is GET /v1/jobs/{id}/events: the job's progress as
// Server-Sent Events. The stream opens with a synthetic "state" event
// describing the job as of subscription (late subscribers miss
// nothing they still need), then carries one event per item
// completion and state transition, and ends itself once the job is
// terminal. Deliberately untraced: a stream that lives for the whole
// sweep must not pin an admission in-flight slot. The manager bounds
// live streams per job and overall; past a bound the answer is 429.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	snap, ch, cancel, err := s.jobs.Subscribe(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrTooManySubscribers):
		writeShed(w, err.Error(), 0)
		return
	case err != nil:
		writeError(w, http.StatusNotFound, codeUnknownJob,
			fmt.Sprintf("unknown job %q", r.PathValue("id")), nil)
		return
	}
	defer cancel()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	send := func(ev jobs.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !send(snap) || snap.Terminal() {
		return
	}
	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return // job went terminal (event already sent) or we were dropped
			}
			if !send(ev) || ev.Terminal() {
				return
			}
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
