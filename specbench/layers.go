package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Repetitions of the direct timings; each reports the median.
const (
	assembleReps = 5
	analysisReps = 3
	resultReps   = 3
	storeHitReps = 20
	admitCalls   = 1_000_000
)

// perLayerUnits lists the --trace 1 metrics.
func perLayerUnits() [][2]string {
	units := [][2]string{
		{"engine.exact_leaf_ms", "ms"},
		{"engine.exact_sim_minstr_per_s", "Minstr/s"},
		{"engine.analytic_leaf_us", "us"},
		{"trace.fill_ns_per_event", "ns"},
		{"machine.alloc_mb_per_leaf", "MB"},
		{"core.parallel_efficiency", "ratio"},
		{"core.characterize_ms", "ms"},
		{"core.assemble_ms", "ms"},
		{"sched.queue_wait_ms", "ms"},
		{"sched.overhead_ms", "ms"},
		{"sched.jobs_per_request", "count"},
		{"sched.dedup_per_request", "count"},
		{"store.put_us", "us"},
		{"store.load_ms", "ms"},
		{"store.hit_ns", "ns"},
		{"store.hits_per_request", "count"},
		{"store.misses_per_request", "count"},
		{"stats.pca_ms", "ms"},
		{"stats.eigen_ms", "ms"},
		{"cluster.linkage_ms", "ms"},
		{"experiments.run_ms", "ms"},
		{"server.encode_ms", "ms"},
		{"server.response_kb", "KB"},
		{"server.overhead_ms", "ms"},
		{"server.allocs_per_request", "count"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.computations_per_request", "count"},
		{"admission.admit_ns", "ns"},
		{"stage.unattributed_ms", "ms"},
		{"stage.request_ms", "ms"},
		{"telemetry.overhead_pct", "%"},
	}
	for _, id := range hotIDs {
		units = append(units, [2]string{"server.encode_ms." + id, "ms"}, [2]string{"server.response_kb." + id, "KB"})
	}
	for name := range stageRank {
		units = append(units, [2]string{"stage." + name + "_ms", "ms"})
	}
	return units
}

// perLayer is the --trace 1 run: the sequence untraced (the baseline
// for the tracing overhead), the same sequence on a freshly booted
// server with a telemetry.Tracer installed, then direct timings of each
// layer's public functions on the same inputs. A layer the workload
// bypasses reads 0.
func perLayer(w *workload, f *fixture, chk *checker, paths []string, snapshot string, loads []float64, rc *runContext) (*result, error) {
	base := runPass(f, chk, paths)
	tr := telemetry.NewTracer(telemetry.TracerConfig{Capacity: len(paths)})
	ft, _, _, err := w.boot(f.lb, snapshot, tr)
	if err != nil {
		return nil, err
	}
	defer ft.close()
	c0, s0 := ft.counts(), ft.st.Stats()
	traced := runPass(ft, chk, paths)
	c, s1 := ft.counts().minus(c0), ft.st.Stats()
	rc.ServerStatus = f.lb.status()

	r := newReport(perLayerUnits())
	n := len(paths)
	perReq := func(v float64) float64 { return v / float64(n) }

	// Counts, from the store's and the servers' own counters.
	r.put("store.hits_per_request", perReq(float64(s1.Hits-s0.Hits)), n)
	r.put("store.misses_per_request", perReq(float64(s1.Misses-s0.Misses)), n)
	r.put("sched.jobs_per_request", perReq(c.jobs), n)
	r.put("sched.dedup_per_request", perReq(c.dedup), n)
	r.put("server.computations_per_request", perReq(c.computations), n)
	r.put("server.cache_hit_ratio", div(c.cacheHits, c.cacheHits+c.cacheMisses), int(c.cacheHits+c.cacheMisses))
	r.put("sched.queue_wait_ms", 1000*div(c.queueWaitSum, c.queueWaitCount), int(c.queueWaitCount))

	// Spans, summed by name over the traced pass.
	sp := sumSpans(tr.Traces(telemetry.Filter{Limit: n}))
	workers := float64(runtime.GOMAXPROCS(0))
	chars := sp.count["characterize"]
	charMS := sp.dur["characterize"]
	leafMS := sp.dur["simulate"] + sp.dur["estimate"]
	r.put("core.characterize_ms", div(charMS, float64(chars)), chars)
	r.put("core.parallel_efficiency", div(leafMS, charMS*workers), chars)
	r.put("sched.overhead_ms", div(charMS-leafMS/workers, float64(chars)), chars)
	r.put("store.put_us", 1000*div(sp.dur["store.put"], float64(sp.count["store.put"])), sp.count["store.put"])
	perTrace := func(v float64) float64 { return div(v, float64(sp.traces)) }
	for name := range stageRank {
		r.put("stage."+name+"_ms", perTrace(sp.wall[name]), sp.count[name])
	}
	r.put("stage.unattributed_ms", perTrace(sp.unattributed), sp.traces)
	r.put("stage.request_ms", perTrace(sp.dur["http.request"]), sp.traces)
	r.put("telemetry.overhead_pct", 100*(mean(traced.lat)/mean(base.lat)-1), n)
	r.put("server.allocs_per_request", perReq(float64(base.mallocs)), n)

	// Direct timings of each layer's public functions on the inputs of
	// the sequence's first request.
	if err := timeLayers(w, ft.st, paths, traced, mean(base.lat), loads, r); err != nil {
		return nil, err
	}

	failed := base.failed + traced.failed
	reasons := append(base.reasons, traced.reasons...)
	if sp.traces != n || sp.dropped > 0 {
		failed++
		reasons = append(reasons, fmt.Sprintf("the tracer kept %d traces for %d requests and dropped %d spans",
			sp.traces, n, sp.dropped))
	}
	rc.Samples, rc.Failures = r.samples, reasons
	return &result{Correct: failed == 0, Attempted: 2 * n, Failed: failed, Metrics: r.metrics}, nil
}

// timeLayers times the layers the workload's requests run, calling
// their public functions directly on the same inputs.
func timeLayers(w *workload, st *store.Store, paths []string, traced *pass, baseLatency float64, loads []float64, r *report) error {
	_, opts, tier, err := parsePath(paths[0])
	if err != nil {
		return err
	}
	fleet, err := machine.Fleet()
	if err != nil {
		return err
	}
	entries := experiments.Entries()
	eng, err := engine.New(tier)
	if err != nil {
		return err
	}

	if w.cold() {
		times, alloc, err := timeLeaves(eng, opts, fleet, entries)
		if err != nil {
			return err
		}
		k := len(times)
		if tier == engine.TierExact {
			c := opts.Canonical()
			events := c.Instructions + c.WarmupInstructions
			r.put("engine.exact_leaf_ms", median(times), k)
			r.put("engine.exact_sim_minstr_per_s", float64(k*events)/sum(times)/1000, k)
			r.put("machine.alloc_mb_per_leaf", alloc/float64(k)/(1<<20), k)
			ns, filled, err := timeTraceFill(entries, events)
			if err != nil {
				return err
			}
			r.put("trace.fill_ns_per_event", ns, filled)
		} else {
			r.put("engine.analytic_leaf_us", 1000*median(times), k)
		}
	}

	if w.warm {
		r.put("store.load_ms", median(loads), len(loads))
		ns, k, err := timeStoreHits(st, opts, fleet, entries)
		if err != nil {
			return err
		}
		r.put("store.hit_ns", ns, k)
		times, err := repeat(assembleReps, func() error {
			q := sched.NewPool(0, nil).Queue(0)
			_, err := core.CharacterizeWith(context.Background(), entries, fleet, opts.Canonical(), st, q, nil)
			return err
		})
		if err != nil {
			return err
		}
		r.put("core.assemble_ms", median(times), len(times))
	}

	// A Lab over the traced server's store at the first request's
	// fidelity and tier: its characterization is all store hits, so
	// Descriptor.Run below times the analysis alone. The exact tier is
	// the nil engine, as in the server.
	var labEngine engine.Engine
	if tier != engine.TierExact {
		labEngine = eng
	}
	lab := experiments.NewLabWithEngine(opts.Canonical(), st, sched.NewPool(0, nil).Queue(0), labEngine)
	char, err := lab.Characterization()
	if err != nil {
		return err
	}
	// warm-analysis's own work is table5's PCA and clustering.
	if w.warm {
		pca, eigen, link, err := timeAnalysis(char)
		if err != nil {
			return err
		}
		r.put("stats.pca_ms", pca, analysisReps)
		r.put("stats.eigen_ms", eigen, analysisReps)
		r.put("cluster.linkage_ms", link, analysisReps)
	}

	var ids []string
	for _, p := range paths {
		id, _, _, err := parsePath(p)
		if err != nil {
			return err
		}
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	runMS, encMS, err := timeResults(lab, ids)
	if err != nil {
		return err
	}
	var runSum, encSum, kbSum float64
	kbByID := map[string]float64{}
	for _, p := range paths {
		id, _, _, _ := parsePath(p)
		runSum += runMS[id]
		encSum += encMS[id]
		kb := float64(traced.size[p]) / 1024
		kbSum += kb
		kbByID[id] = kb
	}
	n := float64(len(paths))
	if !w.cached {
		r.put("experiments.run_ms", runSum/n, len(paths))
	}
	r.put("server.encode_ms", encSum/n, len(paths))
	r.put("server.response_kb", kbSum/n, len(paths))
	r.put("server.overhead_ms", baseLatency-encSum/n, len(paths))
	for _, id := range hotIDs {
		if enc, ok := encMS[id]; ok {
			r.put("server.encode_ms."+id, enc, resultReps)
			r.put("server.response_kb."+id, kbByID[id], 1)
		}
	}

	r.put("admission.admit_ns", timeAdmit(), admitCalls)
	return nil
}

// timeLeaves measures every (entry, machine) leaf of the fleet
// characterization once, serially, through eng.Measure. It returns the
// per-leaf times in ms and the bytes allocated over all of them.
func timeLeaves(eng engine.Engine, opts machine.RunOptions, fleet []*machine.Machine, entries []core.Entry) ([]float64, float64, error) {
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	times := make([]float64, 0, len(fleet)*len(entries))
	for _, e := range entries {
		for _, m := range fleet {
			t := time.Now()
			if _, err := eng.Measure(ctx, m, e.Workload, opts); err != nil {
				return nil, 0, fmt.Errorf("measuring %s on %s: %w", e.Label, m.Name(), err)
			}
			times = append(times, ms(time.Since(t)))
		}
	}
	runtime.ReadMemStats(&m1)
	return times, float64(m1.TotalAlloc - m0.TotalAlloc), nil
}

// timeTraceFill generates, for every entry, as many trace events as one
// leaf simulates, through trace.Generator.FillBatch in 512-event slabs.
// It returns ns per event and the events generated.
func timeTraceFill(entries []core.Entry, events int) (float64, int, error) {
	slab := make([]trace.Event, 512)
	var total time.Duration
	filled := 0
	for _, e := range entries {
		gen, err := trace.NewGenerator(e.Workload.Spec, e.Workload.Key)
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		for done := 0; done < events; done += len(slab) {
			gen.FillBatch(slab)
		}
		total += time.Since(t)
		filled += (events + len(slab) - 1) / len(slab) * len(slab)
	}
	return float64(total.Nanoseconds()) / float64(filled), filled, nil
}

// timeStoreHits reads every leaf's record back through
// store.GetOrCompute, the call a warm characterization makes per leaf,
// and returns ns per hit.
func timeStoreHits(st *store.Store, opts machine.RunOptions, fleet []*machine.Machine, entries []core.Entry) (float64, int, error) {
	var keys []store.Key
	for _, e := range entries {
		for _, m := range fleet {
			keys = append(keys, store.KeyForEngine(m, e.Workload, opts, string(engine.TierExact)))
		}
	}
	miss := func(context.Context) (*machine.RawCounts, error) {
		return nil, errors.New("store miss on a key the snapshot holds")
	}
	ctx := context.Background()
	t := time.Now()
	for i := 0; i < storeHitReps; i++ {
		for _, k := range keys {
			if _, err := st.GetOrCompute(ctx, k, miss); err != nil {
				return 0, 0, err
			}
		}
	}
	hits := storeHitReps * len(keys)
	return float64(time.Since(t).Nanoseconds()) / float64(hits), hits, nil
}

// tableVSuites are the sub-suites a table5 request analyzes, one PCA and
// one dendrogram each.
var tableVSuites = []workloads.Suite{workloads.SpeedINT, workloads.RateINT, workloads.SpeedFP, workloads.RateFP}

// timeAnalysis times, on the same characterization, the calls a table5
// request's analysis makes per sub-suite (see core.SimilarityCtx):
// stats.FitPCA, which includes the eigendecomposition; stats.EigenSym
// alone on the same correlation matrix; and cluster.Cluster with Ward
// linkage over the Kaiser-reduced scores. Each result is the per-request
// sum over the sub-suites, the median of analysisReps repetitions, in ms.
func timeAnalysis(c *core.Characterization) (pca, eigen, link float64, err error) {
	var pcas, eigens, links []float64
	for rep := 0; rep < analysisReps; rep++ {
		var p, e, l time.Duration
		for _, suite := range tableVSuites {
			sel, err := c.Select(experiments.SuiteNames(suite))
			if err != nil {
				return 0, 0, 0, err
			}
			x, _, err := sel.Matrix(nil, nil)
			if err != nil {
				return 0, 0, 0, err
			}
			t := time.Now()
			fit, err := stats.FitPCA(x, stats.PCAOptions{})
			p += time.Since(t)
			if err != nil {
				return 0, 0, 0, err
			}
			corr, err := x.Correlation()
			if err != nil {
				return 0, 0, 0, err
			}
			t = time.Now()
			_, _, err = stats.EigenSym(corr)
			e += time.Since(t)
			if err != nil {
				return 0, 0, 0, err
			}
			k := fit.KaiserComponents()
			if k > len(sel.Labels)-1 && len(sel.Labels) > 1 {
				k = len(sel.Labels) - 1
			}
			points := fit.ReducedScores(k, true)
			t = time.Now()
			_, err = cluster.Cluster(points, sel.Labels, cluster.Ward)
			l += time.Since(t)
			if err != nil {
				return 0, 0, 0, err
			}
		}
		pcas, eigens, links = append(pcas, ms(p)), append(eigens, ms(e)), append(links, ms(l))
	}
	return median(pcas), median(eigens), median(links), nil
}

// timeResults runs each experiment with Descriptor.Run on lab, whose
// characterization is already built, so only the analysis is timed;
// then encodes the result as the server does (indented JSON). It
// returns the median times in ms by experiment id.
func timeResults(lab *experiments.Lab, ids []string) (run, enc map[string]float64, err error) {
	run, enc = map[string]float64{}, map[string]float64{}
	for _, id := range ids {
		d, ok := experiments.Lookup(id)
		if !ok {
			return nil, nil, experiments.UnknownIDError(id)
		}
		var v any
		runs, err := repeat(resultReps, func() (err error) {
			v, err = d.Run(lab)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("running %s: %w", id, err)
		}
		var buf bytes.Buffer
		encs, err := repeat(resultReps, func() error {
			buf.Reset()
			e := json.NewEncoder(&buf)
			e.SetIndent("", "  ")
			return e.Encode(v)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("encoding %s: %w", id, err)
		}
		run[id], enc[id] = median(runs), median(encs)
	}
	return run, enc, nil
}

// timeAdmit times admission.Controller.Admit under the server's
// configuration, the zero admission.Config, and returns ns per call.
func timeAdmit() float64 {
	c := admission.New(admission.Config{})
	cost := admission.Cost(0, 1)
	t := time.Now()
	for i := 0; i < admitCalls; i++ {
		c.Admit("127.0.0.1", cost)
	}
	return float64(time.Since(t).Nanoseconds()) / admitCalls
}

// repeat runs fn n times and returns each run's time in ms.
func repeat(n int, fn func() error) ([]float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		times = append(times, ms(time.Since(t)))
	}
	return times, nil
}

// spanSums totals a traced pass's spans by name, and partitions each
// request's wall time among the stages (see attribute).
type spanSums struct {
	traces  int
	dropped int // spans beyond the tracer's per-trace cap
	count   map[string]int
	dur     map[string]float64 // ms, summed over every span of the name
	wall    map[string]float64 // ms of request wall time attributed to the stage
	// unattributed is the request wall time no stage covers: routing,
	// admission, the analysis outside pca and cluster, and encoding.
	unattributed float64
}

func sumSpans(traces []*telemetry.TraceData) *spanSums {
	s := &spanSums{traces: len(traces), count: map[string]int{}, dur: map[string]float64{}, wall: map[string]float64{}}
	for _, t := range traces {
		s.dropped += t.DroppedSpans
		s.add(&t.Root)
		s.attribute(t)
	}
	return s
}

func (s *spanSums) add(d *telemetry.SpanData) {
	s.count[d.Name]++
	s.dur[d.Name] += d.DurationMS
	for i := range d.Children {
		s.add(&d.Children[i])
	}
}

// stageRank names the spans the program emits below its http.request
// root, and orders them for attribution: work first, then waiting, then
// characterize's own coordination. The traced pass reports the request
// wall time attributed to each (see spanSums.attribute) as
// stage.<name>_ms.
var stageRank = map[string]int{
	"simulate": 0, "estimate": 0, "store.get": 0, "store.put": 0, "pca": 0, "cluster": 0,
	"sched.wait": 1, "admission.wait": 1,
	"characterize": 2,
}

// attribute partitions one request's wall time among the stages, so the
// stages and the unattributed rest add up to the request. Leaf jobs run
// concurrently, and hundreds wait in the scheduler's queue while two
// simulate, so span durations cannot simply be summed. Each instant
// goes to the lowest-ranked stage with a span open then, split evenly
// among that rank's open spans; an instant with no stage open is
// unattributed.
func (s *spanSums) attribute(t *telemetry.TraceData) {
	type edge struct {
		at   float64 // ms since the request started
		name string
		open int // +1 opens a span, -1 closes one
	}
	var edges []edge
	var walk func(d *telemetry.SpanData)
	walk = func(d *telemetry.SpanData) {
		for i := range d.Children {
			c := &d.Children[i]
			if _, ok := stageRank[c.Name]; ok {
				lo := math.Max(ms(c.Start.Sub(t.Root.Start)), 0)
				hi := math.Min(lo+c.DurationMS, t.Root.DurationMS)
				if hi > lo {
					edges = append(edges, edge{lo, c.Name, 1}, edge{hi, c.Name, -1})
				}
			}
			walk(c)
		}
	}
	walk(&t.Root)
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	var byRank [3]int
	open := map[string]int{}
	last := 0.0
	for _, e := range edges {
		if span := e.at - last; span > 0 {
			s.split(span, byRank, open)
		}
		last = e.at
		byRank[stageRank[e.name]] += e.open
		open[e.name] += e.open
	}
	s.split(t.Root.DurationMS-last, byRank, open)
}

// split gives span ms to the lowest rank with open spans, shared among
// its stages by how many spans each has open.
func (s *spanSums) split(span float64, byRank [3]int, open map[string]int) {
	for rank, n := range byRank {
		if n == 0 {
			continue
		}
		for name, k := range open {
			if k > 0 && stageRank[name] == rank {
				s.wall[name] += span * float64(k) / float64(n)
			}
		}
		return
	}
	s.unattributed += span
}
