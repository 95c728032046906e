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
//     experiments sharing the store.
//   - A per-key singleflight coalesces concurrent requests for one
//     uncomputed measurement onto a single simulation; waiters carry a
//     context.Context, and a computation whose every waiter has gone
//     away is canceled instead of burning a worker.
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
// so enabling the store never changes a result.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

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

// Key identifies one measurement: a workload on a machine at a
// fidelity, plus a content hash binding the key to the exact machine
// configuration and workload specification that produced the record.
type Key struct {
	// Machine is the measuring machine's name.
	Machine string `json:"machine"`
	// Workload is the workload's seed key (machine.Workload.Key).
	Workload string `json:"workload"`
	// Instructions and Warmup are the canonical run options.
	Instructions int `json:"instructions"`
	Warmup       int `json:"warmup"`
	// Copies is the concurrent-copy count of a multi-copy (SPECrate)
	// record; 0 for single-copy measurements.
	Copies int `json:"copies,omitempty"`
	// Engine is the measurement engine tier that produced the record;
	// "" means the exact (trace-driven) engine, so records written
	// before engines existed keep their identity and stay warm.
	Engine string `json:"engine,omitempty"`
	// Content is the hash of the machine configuration and workload
	// specification. A changed profile or machine model changes the
	// hash, so stale records become unreachable instead of wrong.
	Content string `json:"content"`
}

// ID returns the key's canonical string identity — the store's map
// key, and the identity the shared scheduler (internal/sched)
// deduplicates in-flight simulations by.
func (k Key) ID() string {
	var buf [idBufLen]byte
	return string(k.appendID(buf[:0]))
}

// idBufLen fits the identity of every key the fleet produces, so Lookup
// can spell it into a stack buffer instead of allocating a string.
const idBufLen = 160

// appendID appends the key's canonical identity to b.
func (k Key) appendID(b []byte) []byte {
	b = append(b, k.Machine...)
	b = append(b, '|')
	b = append(b, k.Workload...)
	b = append(b, "|i"...)
	b = strconv.AppendInt(b, int64(k.Instructions), 10)
	b = append(b, "|w"...)
	b = strconv.AppendInt(b, int64(k.Warmup), 10)
	b = append(b, "|c"...)
	b = strconv.AppendInt(b, int64(k.Copies), 10)
	b = append(b, "|e"...)
	b = append(b, k.Engine...)
	b = append(b, '|')
	return append(b, k.Content...)
}

// id is the historical spelling of ID.
func (k Key) id() string { return k.ID() }

// contentHash hashes the full measurement identity: the machine's
// configuration and the workload's spec, seed key, and ILP. JSON
// marshalling of these structs is deterministic (fixed field order),
// so equal inputs hash equally.
func contentHash(cfg machine.Config, w machine.Workload) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Encode cannot fail on these plain structs; ignore the error so
	// the hash helper stays infallible for callers.
	_ = enc.Encode(cfg)
	_ = enc.Encode(w)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// KeyFor returns the store key of a single-copy measurement of w on m
// under the canonical form of opts.
func KeyFor(m *machine.Machine, w machine.Workload, opts machine.RunOptions) Key {
	c := opts.Canonical()
	return Key{
		Machine:      m.Name(),
		Workload:     w.Key,
		Instructions: c.Instructions,
		Warmup:       c.WarmupInstructions,
		Content:      contentHash(m.Config(), w),
	}
}

// KeyForMulti returns the store key of a copies-way multi-copy
// (SPECrate-style) measurement of w on m.
func KeyForMulti(m *machine.Machine, w machine.Workload, copies int, opts machine.RunOptions) Key {
	k := KeyFor(m, w, opts)
	k.Copies = copies
	return k
}

// KeyForEngine returns the store key of a single-copy measurement of w
// on m as produced by the named engine tier. The exact tier is
// normalized to the empty string so exact records keep the identity
// they had before engine tiers existed (old snapshots stay warm).
func KeyForEngine(m *machine.Machine, w machine.Workload, opts machine.RunOptions, engineTier string) Key {
	k := KeyFor(m, w, opts)
	if engineTier != "exact" {
		k.Engine = engineTier
	}
	return k
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
	// Log receives load/persist warnings. Defaults to the standard
	// logger.
	Log *log.Logger
	// OnCheckpointError, when set, is invoked (from the checkpoint
	// goroutine) for every failed background save — how the insight
	// plane turns a silently-logged persistence failure into a typed
	// operator event. The snapshot on disk stays intact either way.
	OnCheckpointError func(error)
}

// storeMetrics bundles the store's instruments.
type storeMetrics struct {
	hits        *metrics.Counter
	misses      *metrics.Counter
	loaded      *metrics.Counter
	persisted   *metrics.Counter
	entries     *metrics.Gauge
	checkpoints *metrics.Counter
}

func newStoreMetrics(r *metrics.Registry) storeMetrics {
	return storeMetrics{
		hits: r.Counter("spec17_store_hits_total",
			"Measurements served from the store without simulating."),
		misses: r.Counter("spec17_store_misses_total",
			"Measurements the store had to compute (simulations led)."),
		loaded: r.Counter("spec17_store_loaded_entries_total",
			"Records restored from the on-disk snapshot at open."),
		persisted: r.Counter("spec17_store_persisted_entries_total",
			"Records written to the on-disk snapshot across saves."),
		entries: r.Gauge("spec17_store_entries",
			"Records currently resident in the store."),
		checkpoints: r.Counter("spec17_store_checkpoints_total",
			"Background snapshot saves performed by StartCheckpointing."),
	}
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits      int64 // measurements served from memory
	Misses    int64 // measurements computed (simulations led)
	Loaded    int64 // records restored from the snapshot at open
	Persisted int64 // records written across all saves
	Entries   int64 // records currently resident
}

// flight is one in-progress computation. The context given to the
// compute function is canceled when every interested caller has gone
// away, so abandoned simulations stop instead of burning a worker.
type flight struct {
	done   chan struct{}
	val    any
	err    error
	refs   int // interested callers, guarded by Store.mu
	cancel context.CancelFunc
}

// Store is a concurrency-safe measurement store. Create with Open (or
// use new(Store) for a bare memory-only store via Open(Config{})).
type Store struct {
	cfg Config
	met storeMetrics

	mu      sync.Mutex
	single  map[string]*machine.RawCounts
	multi   map[string]*machine.MultiCounts
	flights map[string]*flight

	// gen counts record writes; savedGen is the gen captured by the
	// last successful Save. They differ exactly when the store holds
	// records the snapshot doesn't — what checkpointing looks at.
	gen      int64
	savedGen int64
}

// Open returns a ready Store, loading the snapshot at cfg.Path when
// one exists. Open never fails: a missing snapshot starts cold, and a
// corrupted, truncated, version-mismatched, or fingerprint-mismatched
// snapshot is discarded so everything recomputes. The returned error
// is advisory — it describes a discarded snapshot (callers typically
// log it) and the Store is fully usable regardless.
func Open(cfg Config) (*Store, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	s := &Store{
		cfg:     cfg,
		met:     newStoreMetrics(cfg.Metrics),
		single:  make(map[string]*machine.RawCounts),
		multi:   make(map[string]*machine.MultiCounts),
		flights: make(map[string]*flight),
	}
	if cfg.Path == "" {
		return s, nil
	}
	err := s.load()
	if err != nil {
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
	Key    Key                  `json:"key"`
	Counts *machine.RawCounts   `json:"counts,omitempty"`
	Multi  *machine.MultiCounts `json:"multi,omitempty"`
}

// load restores the snapshot at cfg.Path. Any defect discards the
// snapshot and leaves the store empty; the error describes why.
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
	n := 0
	s.mu.Lock()
	for _, e := range snap.Entries {
		if e.Key.Machine == "" || e.Key.Workload == "" || e.Key.Content == "" {
			continue // malformed record: skip, never serve
		}
		switch {
		case e.Multi != nil:
			s.multi[e.Key.id()] = e.Multi
			n++
		case e.Counts != nil:
			s.single[e.Key.id()] = e.Counts
			n++
		}
	}
	total := len(s.single) + len(s.multi)
	s.mu.Unlock()
	s.met.loaded.Add(float64(n))
	s.met.entries.Set(float64(total))
	return nil
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
	for id, rc := range s.single {
		snap.Entries = append(snap.Entries, snapshotEntry{Key: keyFromID(id), Counts: rc})
	}
	for id, mc := range s.multi {
		snap.Entries = append(snap.Entries, snapshotEntry{Key: keyFromID(id), Multi: mc})
	}
	gen := s.gen
	s.mu.Unlock()
	sort.Slice(snap.Entries, func(i, j int) bool {
		return snap.Entries[i].Key.id() < snap.Entries[j].Key.id()
	})
	data, err := json.MarshalIndent(&snap, "", " ")
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}

	if err := AtomicWriteFile(s.cfg.Path, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	if gen > s.savedGen {
		s.savedGen = gen
	}
	s.mu.Unlock()
	s.met.persisted.Add(float64(len(snap.Entries)))
	return nil
}

// AtomicWriteFile publishes data at path with the store's snapshot
// discipline: write to a temp file in the destination directory,
// fsync, chmod, rename. A crash mid-write leaves any previous file at
// path intact. Shared by the measurement snapshot and the job-state
// snapshot (internal/jobs), so every durable artifact in the system
// survives crashes the same way.
func AtomicWriteFile(path string, data []byte) error {
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
// (Save is atomic). The returned stop function halts the loop,
// performs one final dirty-check save, and waits for the goroutine to
// exit; it is safe to call once. No-op (stop does nothing) for
// memory-only stores or non-positive intervals.
func (s *Store) StartCheckpointing(interval time.Duration) (stop func()) {
	if s.cfg.Path == "" || interval <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	save := func() {
		if !s.Dirty() {
			return
		}
		if err := s.Save(); err != nil {
			s.cfg.Log.Printf("store: checkpoint: %v", err)
			if s.cfg.OnCheckpointError != nil {
				s.cfg.OnCheckpointError(err)
			}
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
				save()
			case <-quit:
				save()
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

// keyFromID reverses Key.id. The id is the only identity the maps
// need; the structured Key is reconstructed for the snapshot so the
// file stays introspectable.
func keyFromID(id string) Key {
	var k Key
	// Fields were joined with '|'; Machine and Workload never contain
	// one (SPEC-style names), and the numeric fields are prefixed.
	parts := splitN(id, '|', 7)
	if len(parts) != 7 {
		return Key{Content: id} // defensive; ids are produced by Key.id
	}
	k.Machine = parts[0]
	k.Workload = parts[1]
	k.Instructions, _ = strconv.Atoi(parts[2][1:])
	k.Warmup, _ = strconv.Atoi(parts[3][1:])
	k.Copies, _ = strconv.Atoi(parts[4][1:])
	k.Engine = parts[5][1:]
	k.Content = parts[6]
	return k
}

func splitN(s string, sep byte, n int) []string {
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(s) && len(out) < n-1; i++ {
		if s[i] == sep {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// Get returns the stored single-copy record for key, if present.
func (s *Store) Get(key Key) (*machine.RawCounts, bool) {
	s.mu.Lock()
	rc, ok := s.single[key.id()]
	s.mu.Unlock()
	return rc, ok
}

// Put stores a single-copy record. Records must be treated as
// immutable by all parties.
func (s *Store) Put(key Key, rc *machine.RawCounts) {
	s.mu.Lock()
	s.single[key.id()] = rc
	s.gen++
	n := len(s.single) + len(s.multi)
	s.mu.Unlock()
	s.met.entries.Set(float64(n))
}

// Range visits every resident single-copy record. The record set is
// captured under the lock and visited outside it, so fn may freely
// call back into the store (Get, Put); records are immutable by
// contract, so the copies stay valid. Returning false stops the walk.
// The insight plane's drift monitor uses this to pair analytic-tier
// records with their exact-tier twins.
func (s *Store) Range(fn func(Key, *machine.RawCounts) bool) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.single))
	recs := make([]*machine.RawCounts, 0, len(s.single))
	for id, rc := range s.single {
		ids = append(ids, id)
		recs = append(recs, rc)
	}
	s.mu.Unlock()
	for i, id := range ids {
		if !fn(keyFromID(id), recs[i]) {
			return
		}
	}
}

// GetMulti returns the stored multi-copy record for key, if present.
func (s *Store) GetMulti(key Key) (*machine.MultiCounts, bool) {
	s.mu.Lock()
	mc, ok := s.multi[key.id()]
	s.mu.Unlock()
	return mc, ok
}

// Lookup returns the resident single-copy record for key without
// computing anything: the hit branch of GetOrCompute on its own, for
// callers that serve hits inline and send only misses to a scheduler.
// A hit counts in spec17_store_hits_total and, when ctx is traced,
// records a store.get span; a miss counts nothing. The untraced path
// does not allocate.
func (s *Store) Lookup(ctx context.Context, key Key) (*machine.RawCounts, bool) {
	return lookupIn(ctx, s, s.single, key)
}

// LookupMulti is Lookup for multi-copy (SPECrate-style) records.
func (s *Store) LookupMulti(ctx context.Context, key Key) (*machine.MultiCounts, bool) {
	return lookupIn(ctx, s, s.multi, key)
}

func lookupIn[V any](ctx context.Context, s *Store, table map[string]V, key Key) (V, bool) {
	start := time.Now()
	var buf [idBufLen]byte
	s.mu.Lock()
	// Indexing with string(bytes) directly does not allocate.
	v, ok := table[string(key.appendID(buf[:0]))]
	s.mu.Unlock()
	if ok {
		s.hit(ctx, key, start)
	}
	return v, ok
}

// hit accounts for one record served from memory since start.
func (s *Store) hit(ctx context.Context, key Key, start time.Time) {
	s.met.hits.Inc()
	// Guarded so the untraced hit path — the daemon's hottest code —
	// stays allocation-free.
	if sp := telemetry.FromContext(ctx); sp != nil {
		sp.Record("store.get", start, time.Now(), "key", key.id(), "hit", "true")
	}
}

// GetOrCompute returns the record for key, computing it at most once
// across all concurrent callers. The compute function receives a
// context that is canceled when every caller waiting on this key has
// gone away — a lone disconnected client cancels its simulation. The
// caller's own ctx aborts only its wait, never another caller's
// result.
func (s *Store) GetOrCompute(ctx context.Context, key Key, compute func(context.Context) (*machine.RawCounts, error)) (*machine.RawCounts, error) {
	v, err := s.getOrCompute(ctx, key, "single", func(fctx context.Context) (any, error) {
		return compute(fctx)
	})
	if err != nil {
		return nil, err
	}
	return v.(*machine.RawCounts), nil
}

// GetOrComputeMulti is GetOrCompute for multi-copy (SPECrate-style)
// records.
func (s *Store) GetOrComputeMulti(ctx context.Context, key Key, compute func(context.Context) (*machine.MultiCounts, error)) (*machine.MultiCounts, error) {
	v, err := s.getOrCompute(ctx, key, "multi", func(fctx context.Context) (any, error) {
		return compute(fctx)
	})
	if err != nil {
		return nil, err
	}
	return v.(*machine.MultiCounts), nil
}

// lookup returns the resident record for id in the given kind's table.
func (s *Store) lookup(kind, id string) (any, bool) {
	if kind == "multi" {
		mc, ok := s.multi[id]
		return mc, ok
	}
	rc, ok := s.single[id]
	return rc, ok
}

func (s *Store) storeResult(kind, id string, v any) {
	if kind == "multi" {
		s.multi[id] = v.(*machine.MultiCounts)
	} else {
		s.single[id] = v.(*machine.RawCounts)
	}
	s.gen++
}

func (s *Store) getOrCompute(ctx context.Context, key Key, kind string, compute func(context.Context) (any, error)) (any, error) {
	id := key.id()
	for {
		start := time.Now()
		s.mu.Lock()
		if v, ok := s.lookup(kind, id); ok {
			s.mu.Unlock()
			s.hit(ctx, key, start)
			return v, nil
		}
		f, joined := s.flights[id]
		if !joined {
			fctx, cancel := context.WithCancel(context.Background())
			// The flight outlives any one waiter, but its work belongs
			// to the trace of the request that opened it.
			fctx = telemetry.WithSpan(fctx, telemetry.FromContext(ctx))
			f = &flight{done: make(chan struct{}), cancel: cancel}
			s.flights[id] = f
			s.met.misses.Inc()
			go func() {
				v, err := compute(fctx)
				putStart := time.Now()
				s.mu.Lock()
				if err == nil {
					s.storeResult(kind, id, v)
				}
				n := len(s.single) + len(s.multi)
				delete(s.flights, id)
				s.mu.Unlock()
				if err == nil {
					if sp := telemetry.FromContext(fctx); sp != nil {
						sp.Record("store.put", putStart, time.Now(), "key", id)
					}
				}
				s.met.entries.Set(float64(n))
				f.val, f.err = v, err
				close(f.done)
				cancel()
			}()
		}
		f.refs++
		s.mu.Unlock()

		select {
		case <-f.done:
			s.mu.Lock()
			f.refs--
			s.mu.Unlock()
			if isCancellation(f.err) && ctx.Err() == nil {
				// The flight died because its *other* callers left
				// before we joined the wait; this caller still wants
				// the record — retry (warm partial state makes the
				// retry cheap).
				continue
			}
			return f.val, f.err
		case <-ctx.Done():
			s.mu.Lock()
			f.refs--
			if f.refs == 0 {
				f.cancel() // nobody is listening: stop simulating
			}
			s.mu.Unlock()
			return nil, ctx.Err()
		}
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Len returns the number of resident records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.single) + len(s.multi)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      int64(s.met.hits.Value()),
		Misses:    int64(s.met.misses.Value()),
		Loaded:    int64(s.met.loaded.Value()),
		Persisted: int64(s.met.persisted.Value()),
		Entries:   int64(s.Len()),
	}
}

// Path returns the snapshot path ("" for memory-only stores).
func (s *Store) Path() string { return s.cfg.Path }
