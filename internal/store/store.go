// Package store is the persistent measurement store of the
// reproduction: a content-addressed cache of raw simulation results
// keyed by (machine, workload, canonical run options, substrate
// fingerprint). The paper's pipeline is "characterize once, analyze
// many ways" — every table and figure reads the same measurement
// matrix — so the expensive substrate runs are worth remembering
// across experiments *and* across processes.
//
// Three layers of reuse:
//
//   - An in-memory map serves repeated measurements of the same
//     (machine, workload, options) triple instantly, across all
//     experiments sharing the store. It holds at most maxBytes of
//     records and evicts what is cheapest to recompute first
//     (GreedyDual-Size, see evict.go).
//   - A per-key flight (internal/flight) coalesces concurrent requests
//     for one uncomputed measurement onto a single simulation. It is
//     the process's one coalescing point for a measurement: callers
//     join it before they ask the scheduler (internal/sched) for a
//     worker, so a caller sharing another's measurement takes none.
//   - An optional on-disk JSON snapshot (atomic write-temp-rename)
//     makes restarts warm: a daemon reloading its snapshot answers its
//     first report without re-simulating anything.
//
// Staleness is impossible by construction. Each key embeds a content
// hash of the machine configuration and the workload specification, so
// editing the profile database or a machine model changes the key and
// the old record is simply never found again. The snapshot header
// additionally carries a substrate fingerprint (bumped whenever the
// simulator code changes behaviour); a snapshot written by a different
// substrate is silently discarded and everything is recomputed.
// Records are bit-identical to fresh measurements — the substrate is
// deterministic and float64 values round-trip exactly through JSON —
// so enabling the store never changes a result. Nor does eviction: an
// evicted record is a miss the next time, measured again bit-identical.
package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// snapshotVersion is the on-disk format version. A snapshot with a
// different version is discarded (recompute beats misinterpreting).
const snapshotVersion = 1

// substrateFingerprint identifies the simulator generation. Bump it
// whenever a change to the measurement substrate (trace generator,
// cache/TLB/branch models, CPI stack, power model) alters results;
// snapshots written under another fingerprint are discarded wholesale.
const substrateFingerprint = "spec17-substrate-v1"

// Fingerprint returns the substrate fingerprint embedded in snapshot
// headers.
func Fingerprint() string { return substrateFingerprint }

// Key identifies one measurement: a pair (machine.Pair: a workload on
// a machine, bound to their contents by the pair's content digest) at a
// fidelity, a copy count and an engine tier. It is fixed-size and
// holds no pointers, so the store's maps hash and compare it as plain
// memory. The fidelity and the copies keep a caller's int whole, so no
// two run options share a key.
type Key struct {
	// instructions and warmup are the canonical run options.
	instructions, warmup int
	// copies is the concurrent-copy count of a multi-copy (SPECrate)
	// record; 0 for single-copy measurements.
	copies int
	pair   machine.Pair
	// engine is the tier that produced the record, by its index in
	// engines: exactTier, analyticTier or another that a caller or a
	// snapshot named.
	engine uint32
}

// The engine tiers of Key.engine. The exact tier is named "", so that
// records written before engines existed keep their identity.
const (
	exactTier uint32 = iota
	analyticTier
)

// tiers names exactTier and analyticTier.
var tiers = [...]string{"", analyticEngine}

// engines interns Key.engine's names: each engine other than the two
// tiers takes the next index when first named.
var engines = struct {
	sync.Mutex
	names []string
	ids   map[string]uint32
}{names: tiers[:], ids: map[string]uint32{}}

// engineOf returns the index of the named engine, interning it. A tier
// takes no lock.
func engineOf(name string) uint32 {
	if i := slices.Index(tiers[:], name); i >= 0 {
		return uint32(i)
	}
	engines.Lock()
	defer engines.Unlock()
	id, ok := engines.ids[name]
	if !ok {
		id = uint32(len(engines.names))
		engines.names = append(engines.names, name)
		engines.ids[name] = id
	}
	return id
}

// Machine returns the name of the measuring machine.
func (k Key) Machine() string { return k.pair.Machine() }

// Workload returns the workload's seed key (machine.Workload.Key).
func (k Key) Workload() string { return k.pair.Workload() }

// snapshotKey is a Key as snapshots write it, by name.
type snapshotKey struct {
	Machine      string `json:"machine"`
	Workload     string `json:"workload"`
	Instructions int    `json:"instructions"`
	Warmup       int    `json:"warmup"`
	Copies       int    `json:"copies,omitempty"`
	Engine       string `json:"engine,omitempty"`
	Content      string `json:"content"`
}

// named returns k by name.
func (k Key) named() snapshotKey {
	engines.Lock()
	engine := engines.names[k.engine]
	engines.Unlock()
	return snapshotKey{k.pair.Machine(), k.pair.Workload(), k.instructions, k.warmup, k.copies, engine, k.pair.Content()}
}

// key returns the Key named n, interning its pair and engine.
func (n snapshotKey) key() Key {
	return Key{n.Instructions, n.Warmup, n.Copies, machine.InternPair(n.Machine, n.Workload, n.Content), engineOf(n.Engine)}
}

// ID returns the key's canonical string identity, as traces and
// snapshots show it. It is injective because a key's machine, workload
// and engine never contain '|' (load skips records where they do).
func (k Key) ID() string { return k.named().id() }

// id is the ID of the key n names.
func (n snapshotKey) id() string {
	b := make([]byte, 0, 160) // fits every key the fleet produces
	b = append(b, n.Machine...)
	b = append(b, '|')
	b = append(b, n.Workload...)
	b = append(b, "|i"...)
	b = strconv.AppendInt(b, int64(n.Instructions), 10)
	b = append(b, "|w"...)
	b = strconv.AppendInt(b, int64(n.Warmup), 10)
	b = append(b, "|c"...)
	b = strconv.AppendInt(b, int64(n.Copies), 10)
	b = append(b, "|e"...)
	b = append(b, n.Engine...)
	b = append(b, '|')
	return string(append(b, n.Content...))
}

// KeyFor returns the store key of a single-copy measurement of w on m
// under the canonical form of opts.
func KeyFor(m *machine.Machine, w machine.Workload, opts machine.RunOptions) Key {
	return KeyForEngine(m, w, opts, "exact")
}

// KeyForMulti returns the store key of a copies-way multi-copy
// (SPECrate-style) measurement of w on m.
func KeyForMulti(m *machine.Machine, w machine.Workload, copies int, opts machine.RunOptions) Key {
	k := KeyFor(m, w, opts)
	k.copies = copies
	return k
}

// KeyForEngine returns the store key of a single-copy measurement of w
// on m, under the canonical form of opts, as produced by the named
// engine tier. It is the one place a caller's Key is built. The exact
// tier is normalized to the empty string so exact records keep the
// identity they had before engine tiers existed (old snapshots stay
// warm). Keying a pair keyed before neither locks nor allocates.
func KeyForEngine(m *machine.Machine, w machine.Workload, opts machine.RunOptions, engineTier string) Key {
	if engineTier == "exact" {
		engineTier = ""
	}
	opts = opts.Canonical()
	return Key{instructions: opts.Instructions, warmup: opts.WarmupInstructions, pair: m.PairOf(w), engine: engineOf(engineTier)}
}

// Config configures a Store. The zero value is a usable, memory-only
// store.
type Config struct {
	// Path is the snapshot file. Empty means memory-only: Load and
	// Save become no-ops.
	Path string
	// Metrics receives the store's instruments (spec17_store_*).
	// Defaults to a private registry.
	Metrics *metrics.Registry
	// Log receives checkpoint warnings, tagged component=store.
	// Defaults to an info-level logger on stderr.
	Log *slog.Logger
	// OnPair, when set, is called once for every analytic record that
	// has its exact twin: same key, Engine "analytic" against "". The
	// put that completes a pair calls it on the storing goroutine
	// after the lock is released; puts are serialized, so exactly one
	// of a pair's two puts sees the other, unless the first was evicted
	// before the second landed. Records loaded from the snapshot form no
	// pairs. The insight package's drift monitor scores pairs here.
	OnPair func(analyticKey Key, analytic, exact *machine.RawCounts)
}

// storeMetrics bundles the store's instruments.
type storeMetrics struct {
	hits      *metrics.Counter
	misses    *metrics.Counter
	loaded    *metrics.Counter
	rejected  *metrics.Counter
	persisted *metrics.Counter
	entries   *metrics.Gauge
	bytes     *metrics.Gauge
	evictions *metrics.CounterVec
	// evictedTier is evictions' series of the two tiers, by
	// Key.engine, resolved once.
	evictedTier  [2]*metrics.Counter
	checkpoints  *metrics.Counter
	ckptFailures *metrics.Counter
}

func newStoreMetrics(r *metrics.Registry) storeMetrics {
	m := storeMetrics{
		hits: r.Counter("spec17_store_hits_total",
			"Measurements served from the store without simulating: resident records and joins onto another caller's computation."),
		misses: r.Counter("spec17_store_misses_total",
			"Store flights led: lookups that found no record and started computing one, counted before the computation waits for a slot, so ones later cancelled or failed count too. Simulations started are spec17_sched_jobs_started_total."),
		loaded: r.Counter("spec17_store_loaded_entries_total",
			"Records restored from the on-disk snapshot at open."),
		rejected: r.Counter("spec17_store_rejected_entries_total",
			"Snapshot records refused at open: a malformed key, or one no caller can produce."),
		persisted: r.Counter("spec17_store_persisted_entries_total",
			"Records written to the on-disk snapshot across saves."),
		entries: r.Gauge("spec17_store_entries",
			"Records currently resident in the store."),
		bytes: r.Gauge("spec17_store_bytes",
			"Accounted bytes of the resident records, at most the store's bound."),
		evictions: r.CounterVec("spec17_store_evictions_total",
			"Records evicted to keep the store within its byte bound, by the engine that produced them.", "engine"),
		checkpoints: r.Counter("spec17_store_checkpoints_total",
			"Background snapshot saves performed by StartCheckpointing."),
		ckptFailures: r.Counter("spec17_store_checkpoint_failures_total",
			"Background snapshot saves by StartCheckpointing that failed; the previous snapshot stays intact."),
	}
	m.evictedTier = [2]*metrics.Counter{m.evictions.With("exact"), m.evictions.With(analyticEngine)}
	return m
}

// evictedBy returns the eviction counter of records whose Key.engine
// is engine. Engines other than the two tiers share the series "other".
func (m storeMetrics) evictedBy(engine uint32) *metrics.Counter {
	if engine <= analyticTier {
		return m.evictedTier[engine]
	}
	return m.evictions.With("other")
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits      int64 // measurements served without computing: resident or joined
	Misses    int64 // flights led, including ones cancelled or failed; not simulations run
	Loaded    int64 // records restored from the snapshot at open
	Rejected  int64 // snapshot records refused at open (see load)
	Persisted int64 // records written across all saves
	Entries   int64 // records currently resident
	Bytes     int64 // accounted bytes of the resident records
	Evicted   int64 // records evicted to stay within the byte bound
}

// table holds one kind of record (single- or multi-copy) by Key, with
// the flights (by Key too) computing the ones not yet resident.
type table[V any] struct {
	recs    map[Key]int32 // index into Store.slots, whose v is a V; guarded by Store.mu
	evicted int           // evictions from recs since it was last rebuilt; guarded by Store.mu
	flights flight.Group[Key, V]
}

// Store is a concurrency-safe measurement store. Create with Open (or
// use new(Store) for a bare memory-only store via Open(Config{})).
type Store struct {
	cfg Config
	met storeMetrics

	mu     sync.Mutex
	single table[*machine.RawCounts]
	multi  table[*machine.MultiCounts]
	// The records and their eviction state (evict.go), guarded by mu:
	// every record's slot, the indices of freed slots, the cost
	// classes, the resident bytes and their bound (maxBytes except in
	// tests, which shrink it through open), GreedyDual-Size's inflation
	// L, the touch clock and the evictions so far.
	slots     []slot
	free      []int32
	classes   []lru
	bytes     int64
	limit     int64
	inflation float64
	clock     uint64
	evicted   int64

	// gen counts record writes; savedGen is the gen captured by the
	// last successful Save, and triedGen by the last Save at all. gen
	// and savedGen differ exactly when the store holds records the
	// snapshot doesn't — what checkpointing looks at.
	gen, savedGen, triedGen int64
}

// Open returns a ready Store, loading the snapshot at cfg.Path when
// one exists. Open never fails: a missing snapshot starts cold, and a
// corrupted, truncated, version-mismatched, or fingerprint-mismatched
// snapshot is discarded so everything recomputes. The returned error
// is advisory — it describes a discarded snapshot (callers typically
// log it) and the Store is fully usable regardless.
func Open(cfg Config) (*Store, error) { return open(cfg, maxBytes) }

// open is Open with the byte bound as a parameter, for tests.
func open(cfg Config, limit int64) (*Store, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = telemetry.NewLogger(os.Stderr, slog.LevelInfo)
	}
	cfg.Log = cfg.Log.With("component", "store")
	s := &Store{
		cfg:    cfg,
		met:    newStoreMetrics(cfg.Metrics),
		single: table[*machine.RawCounts]{recs: make(map[Key]int32)},
		multi:  table[*machine.MultiCounts]{recs: make(map[Key]int32)},
		limit:  limit,
	}
	if cfg.Path == "" {
		return s, nil
	}
	if err := s.load(); err != nil {
		return s, fmt.Errorf("store: snapshot %s discarded: %w", cfg.Path, err)
	}
	return s, nil
}

// snapshot is the on-disk format: a versioned, fingerprinted header
// over the sorted record list.
type snapshot struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Entries     []snapshotEntry `json:"entries"`
}

// snapshotEntry is one record; exactly one of Counts and Multi is set.
type snapshotEntry struct {
	Key    snapshotKey          `json:"key"`
	Counts *machine.RawCounts   `json:"counts,omitempty"`
	Multi  *machine.MultiCounts `json:"multi,omitempty"`
	// id is Key.ID(), built once per record for Save's sort; it is not
	// written.
	id string
}

// load restores the snapshot at cfg.Path. Any defect discards the
// snapshot and leaves the store empty; the error describes why. Records
// enter in the snapshot's order, each as a put would, so a snapshot
// larger than the bound is trimmed by the eviction policy. A record
// whose key is malformed, or one that no caller can produce (see
// producible), is refused and counted, and the rest load.
func (s *Store) load() error {
	data, err := os.ReadFile(s.cfg.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil // cold start, not a defect
	}
	if err != nil {
		return err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("parsing: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.Fingerprint != substrateFingerprint {
		return fmt.Errorf("substrate fingerprint %q, want %q", snap.Fingerprint, substrateFingerprint)
	}
	n, rejected := 0, 0
	s.mu.Lock()
	for _, e := range snap.Entries {
		k := e.Key
		if k.Machine == "" || k.Workload == "" || k.Content == "" || strings.ContainsRune(k.Machine, '|') ||
			strings.ContainsRune(k.Workload, '|') || strings.ContainsRune(k.Engine, '|') {
			// Malformed record: skip, never serve. A '|' inside a
			// field would let two keys share one ID.
			rejected++
			continue
		}
		switch {
		case !producible(e):
			rejected++
		case e.Multi != nil:
			insertLocked(s, &s.multi, k.key(), e.Multi)
			n++
		case e.Counts != nil:
			insertLocked(s, &s.single, k.key(), e.Counts)
			n++
		default:
			rejected++ // no counts at all
		}
	}
	s.publishLocked()
	s.mu.Unlock()
	s.met.loaded.Add(float64(n))
	s.met.rejected.Add(float64(rejected))
	return nil
}

// MaxInstructions is the highest fidelity a key can carry, measured or
// warmup instructions. The daemon refuses requests above it:
// characterization cost is linear in the fidelity, and the cap keeps
// one request from tying up a worker for hours. Open refuses snapshot
// records above it.
const MaxInstructions = 10_000_000

// CheckFidelity refuses run options whose measured or warmup
// instructions exceed MaxInstructions: records at such a fidelity
// would be stored, and then refused by every later Open. The daemon
// and spec17 -store check their options here.
func CheckFidelity(opts machine.RunOptions) error {
	if opts.Instructions > MaxInstructions {
		return fmt.Errorf("instructions=%d exceeds the maximum %d", opts.Instructions, MaxInstructions)
	}
	if opts.WarmupInstructions > MaxInstructions {
		return fmt.Errorf("warmup=%d exceeds the maximum %d", opts.WarmupInstructions, MaxInstructions)
	}
	return nil
}

// producible reports whether some caller could have stored e: a single
// record has Copies 0, a multi record one per-copy count for each of
// its Copies (at least one), and neither a fidelity outside [0,
// MaxInstructions]. Eviction prices a record by these fields (cost),
// so a record that claims more than any caller measures would
// otherwise outlast every record a caller can store.
func producible(e snapshotEntry) bool {
	k := e.Key
	if k.Instructions < 0 || k.Instructions > MaxInstructions || k.Warmup < 0 || k.Warmup > MaxInstructions {
		return false
	}
	if e.Multi == nil {
		return k.Copies == 0
	}
	return k.Copies >= 1 && k.Copies == len(e.Multi.PerCopy) && !slices.Contains(e.Multi.PerCopy, nil)
}

// Save writes the snapshot atomically (write to a temp file in the
// same directory, fsync, rename). A crash mid-save leaves the previous
// snapshot intact. No-op for memory-only stores.
func (s *Store) Save() error {
	if s.cfg.Path == "" {
		return nil
	}
	s.mu.Lock()
	snap := snapshot{Version: snapshotVersion, Fingerprint: substrateFingerprint}
	for k, i := range s.single.recs {
		n := k.named()
		snap.Entries = append(snap.Entries, snapshotEntry{Key: n, Counts: s.slots[i].v.(*machine.RawCounts), id: n.id()})
	}
	for k, i := range s.multi.recs {
		n := k.named()
		snap.Entries = append(snap.Entries, snapshotEntry{Key: n, Multi: s.slots[i].v.(*machine.MultiCounts), id: n.id()})
	}
	gen := s.gen
	s.triedGen = gen
	s.mu.Unlock()
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].id < snap.Entries[j].id })
	data, err := json.MarshalIndent(&snap, "", " ")
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}

	if err := atomicWriteFile(s.cfg.Path, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.savedGen = max(s.savedGen, gen)
	s.mu.Unlock()
	s.met.persisted.Add(float64(len(snap.Entries)))
	return nil
}

// atomicWriteFile publishes the snapshot data at path: write to a
// temp file in the destination directory, fsync, chmod, rename. A
// crash mid-write leaves any previous snapshot at path intact.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".spec17-atomic-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("publishing snapshot: %w", err)
	}
	return nil
}

// Dirty reports whether the store holds records written since the
// last successful Save (always false for memory-only stores, which
// have nothing to persist).
func (s *Store) Dirty() bool {
	if s.cfg.Path == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen != s.savedGen
}

// StartCheckpointing saves the snapshot every interval in the
// background, skipping intervals in which nothing new was recorded.
// A crash therefore loses at most one interval's worth of
// measurements instead of everything since boot. Failures are logged
// and retried at the next tick; the previous snapshot stays intact
// (Save is atomic). The returned stop function halts the loop, saves
// the records written since the last Save was tried, if any, and waits
// for the goroutine to exit; it is safe to call more than once. So a
// caller whose own final Save just failed does not see stop fail it
// again. No-op (stop does nothing) for memory-only stores or
// non-positive intervals.
func (s *Store) StartCheckpointing(interval time.Duration) (stop func()) {
	if s.cfg.Path == "" || interval <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	save := func(final bool) {
		s.mu.Lock()
		pending := s.gen != s.savedGen && (!final || s.gen != s.triedGen)
		s.mu.Unlock()
		if !pending {
			return
		}
		if err := s.Save(); err != nil {
			s.cfg.Log.Warn("checkpoint failed", "err", err)
			s.met.ckptFailures.Inc()
			return
		}
		s.met.checkpoints.Inc()
	}
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				save(false)
			case <-quit:
				save(true)
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
		})
	}
}

// Get returns the stored single-copy record for key, if present, and
// refreshes its place in the eviction order.
func (s *Store) Get(key Key) (*machine.RawCounts, bool) {
	s.mu.Lock()
	rc, ok := getLocked(s, &s.single, key)
	s.mu.Unlock()
	return rc, ok
}

// getLocked returns key's resident record in t, refreshing its place
// in the eviction order. Caller holds s.mu.
func getLocked[V any](s *Store, t *table[V], key Key) (V, bool) {
	i, ok := t.recs[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.touchLocked(i)
	return s.slots[i].v.(V), true
}

// Put stores a single-copy record. Records must be treated as
// immutable by all parties.
func (s *Store) Put(key Key, rc *machine.RawCounts) {
	put(s, &s.single, key, rc)
}

// analyticEngine names the analytic tier's records, whose exact twins
// are named "".
const analyticEngine = "analytic"

// put stores one record in t, evicting as the bound requires. A new
// single-copy record that completes an analytic/exact pair goes to
// cfg.OnPair once the lock is released.
func put[V any](s *Store, t *table[V], key Key, v V) {
	var analyticKey Key
	var analytic, exact *machine.RawCounts
	s.mu.Lock()
	if s.cfg.OnPair != nil {
		if _, had := t.recs[key]; !had {
			analyticKey, analytic, exact = s.pairLocked(key, v)
		}
	}
	insertLocked(s, t, key, v)
	s.gen++
	s.publishLocked()
	s.mu.Unlock()
	if analytic != nil && exact != nil {
		s.cfg.OnPair(analyticKey, analytic, exact)
	}
}

// publishLocked sets the size gauges. It runs under s.mu, so two
// writers cannot publish their counts out of order.
func (s *Store) publishLocked() {
	s.met.entries.Set(float64(s.lenLocked()))
	s.met.bytes.Set(float64(s.bytes))
}

// pairLocked returns the analytic/exact pair that storing v under key
// completes: v and its resident engine twin, analytic first. A
// multi-copy record, a record of another engine, or one whose twin is
// not resident returns nils. Caller holds s.mu.
func (s *Store) pairLocked(key Key, v any) (analyticKey Key, analytic, exact *machine.RawCounts) {
	rc, single := v.(*machine.RawCounts)
	twin := key
	twin.engine ^= 1 // exactTier <-> analyticTier
	i, ok := s.single.recs[twin]
	if !single || key.engine > analyticTier || !ok {
		return Key{}, nil, nil
	}
	other := s.slots[i].v.(*machine.RawCounts)
	if key.engine == exactTier {
		return twin, other, rc
	}
	return key, rc, other
}

// Lookup returns the resident single-copy record for key without
// computing anything: the hit branch of GetOrCompute on its own, for
// callers that serve hits inline and send only misses to a scheduler.
// A hit counts in spec17_store_hits_total and, when ctx is traced,
// records a store.get span; a miss counts nothing. The untraced path
// neither allocates nor reads the clock.
func (s *Store) Lookup(ctx context.Context, key Key) (*machine.RawCounts, bool) {
	return lookupIn(ctx, s, &s.single, key)
}

func lookupIn[V any](ctx context.Context, s *Store, t *table[V], key Key) (V, bool) {
	start := tracedNow(ctx)
	s.mu.Lock()
	v, ok := getLocked(s, t, key)
	s.mu.Unlock()
	if ok {
		s.hit(ctx, key, start)
	}
	return v, ok
}

// tracedNow is the time now if ctx is traced, so that a span can start
// there, and the zero time otherwise: an untraced caller never reads
// the clock.
func tracedNow(ctx context.Context) time.Time {
	if telemetry.FromContext(ctx) == nil {
		return time.Time{}
	}
	return time.Now()
}

// hit accounts for one record served without computing since start.
func (s *Store) hit(ctx context.Context, key Key, start time.Time) {
	s.met.hits.Inc()
	// Guarded so the untraced hit path — the daemon's hottest code —
	// stays allocation-free.
	if sp := telemetry.FromContext(ctx); sp != nil {
		sp.Record("store.get", start, time.Now(), "key", key.ID(), "hit", "true")
	}
}

// GetOrCompute returns the record for key, computing it at most once
// across all concurrent callers. A caller that finds no computation of
// key in progress runs compute itself, on its own goroutine and under
// its own ctx (flight.Group.DoInline), so a miss nobody else wants
// costs no goroutine; callers arriving meanwhile wait for its result,
// and each that receives it counts as a hit. A waiting caller's ctx
// aborts only its own wait. If the computing caller's ctx ends and
// compute fails, a waiting caller still live computes key afresh, so
// no caller's result hangs on another's context.
func (s *Store) GetOrCompute(ctx context.Context, key Key, compute func(context.Context) (*machine.RawCounts, error)) (*machine.RawCounts, error) {
	return getOrCompute(ctx, s, &s.single, key, compute)
}

// GetOrComputeMulti is GetOrCompute for multi-copy (SPECrate-style)
// records.
func (s *Store) GetOrComputeMulti(ctx context.Context, key Key, compute func(context.Context) (*machine.MultiCounts, error)) (*machine.MultiCounts, error) {
	return getOrCompute(ctx, s, &s.multi, key, compute)
}

// getOrCompute looks key up in t and otherwise leads (or joins) the
// key's flight, which writes the record into t before it returns. A
// caller that joins counts one hit, whose store.get span covers its
// wait, so hits plus misses count every request.
func getOrCompute[V any](ctx context.Context, s *Store, t *table[V], key Key, compute func(context.Context) (V, error)) (V, error) {
	if v, ok := lookupIn(ctx, s, t, key); ok {
		return v, nil
	}
	start := tracedNow(ctx)
	v, err, joined := t.flights.DoInline(ctx, key, func(fctx context.Context) (V, error) {
		// A flight for key may have stored the record since the
		// lookup above.
		if v, ok := lookupIn(fctx, s, t, key); ok {
			return v, nil
		}
		s.met.misses.Inc()
		v, err := compute(fctx)
		if err != nil {
			return v, err
		}
		putStart := tracedNow(fctx)
		put(s, t, key, v)
		if sp := telemetry.FromContext(fctx); sp != nil {
			sp.Record("store.put", putStart, time.Now(), "key", key.ID())
		}
		return v, nil
	})
	if joined && err == nil {
		s.hit(ctx, key, start)
	}
	return v, err
}

// Len returns the number of resident records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lenLocked()
}

// lenLocked is Len for callers holding s.mu.
func (s *Store) lenLocked() int { return len(s.single.recs) + len(s.multi.recs) }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:      int64(s.met.hits.Value()),
		Misses:    int64(s.met.misses.Value()),
		Loaded:    int64(s.met.loaded.Value()),
		Rejected:  int64(s.met.rejected.Value()),
		Persisted: int64(s.met.persisted.Value()),
	}
	s.mu.Lock()
	st.Entries, st.Bytes, st.Evicted = int64(s.lenLocked()), s.bytes, s.evicted
	s.mu.Unlock()
	return st
}

// Path returns the snapshot path ("" for memory-only stores).
func (s *Store) Path() string { return s.cfg.Path }

// PairHooked reports whether the store was opened with an OnPair hook.
func (s *Store) PairHooked() bool { return s.cfg.OnPair != nil }
