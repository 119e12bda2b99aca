package store

import (
	"sync"
	"sync/atomic"

	"repro/internal/space"
	"repro/internal/store/wal"
)

// Entry is one simulated configuration and its measured metric value.
type Entry struct {
	Config space.Config
	Lambda float64
}

// Store accumulates simulated configurations. Interpolated configurations
// are deliberately NOT stored: "If the configuration is interpolated, it
// is not used for kriging other configurations" (paper, §III-B.1).
//
// A Store is safe for concurrent use by multiple goroutines; see the
// package documentation for the builder/epoch write scheme.
type Store struct {
	// mu serialises writers. One writer at a time mutates the builder
	// and publishes a fresh view; readers load cur lock-free. On a
	// durable store mu also spans the log append, so the log's record
	// order matches the sequence stamps the entries get in memory —
	// recovery replays the log in order, so the two orders must agree
	// or overwrite winners could flip on restart.
	mu     sync.Mutex
	b      builder
	cur    atomic.Pointer[view]
	metric space.Metric

	// Durable backend (nil for the in-memory store), guarded by mu.
	log    *wal.Log
	walErr error        // sticky durability failure; see Err
	closed bool         // Close called
	recBuf []wal.Record // encode scratch reused across batches
}

// Options configures a Store beyond its distance metric. The zero value
// selects no durability.
type Options struct {
	// Durability, when non-nil, backs the store with a write-ahead
	// segment log so its contents survive restarts (see Open). Nil keeps
	// the store purely in-memory.
	Durability *DurabilityOptions
}

// New creates an empty in-memory store using the given distance metric
// for neighbour queries (the paper uses L1). Durable stores are created
// with Open, because recovery has failure modes New cannot report.
func New(metric space.Metric) *Store {
	s := &Store{metric: metric}
	s.cur.Store(emptyView)
	return s
}

// Len returns the number of simulated configurations (Nsim).
func (s *Store) Len() int { return s.cur.Load().live }

// HashConfig returns the store's key hash of a configuration — the same
// allocation-free hashing that keys its exact lookups. The evaluator's
// single-flight table keys its in-flight simulations with it so both
// layers agree on configuration identity.
func HashConfig(c space.Config) uint64 { return hashConfig(c) }

// Metric returns the store's distance metric.
func (s *Store) Metric() space.Metric { return s.metric }

// Add records a simulated configuration and its metric value. Re-adding
// an existing configuration overwrites its value and reports false.
//
// Inserts are amortized O(1): the writer mutates the private builder
// (append-only entries, incremental key table) under the writer lock and
// publishes a fresh immutable view, instead of copying the store.
// Lock-free readers keep whatever view they loaded.
//
// On a durable store the entry is logged (and, under SyncBatch, fsynced)
// before it is applied; if durability fails the entry is NOT added,
// Add reports false, and the failure is sticky via Err.
func (s *Store) Add(c space.Config, lambda float64) (added bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		recs := append(s.recBuf[:0], wal.Record{Config: []int(c), Lambda: lambda})
		s.recBuf = recs
		if !s.appendLocked(recs, "add") {
			return false
		}
	}
	added = s.b.insert(c, lambda)
	s.cur.Store(s.b.publish())
	return added
}

// AddBatch records a batch of simulated configurations with ONE view
// publication, the bulk-load path for replayed traces, restored stores
// and batch-evaluation commits. Entries are stamped in input order, so
// the resulting store is indistinguishable from calling Add in a loop
// (same sequence, same overwrite semantics — a configuration repeated
// inside the batch keeps the last value at the first occurrence's
// insertion rank). It returns the number of entries that were new
// configurations.
//
// Entry records, configuration copies and precomputed coordinates are
// carved out of batch-level slabs (three allocations per batch instead
// of three per entry); the stored entries live for the life of the
// store anyway, so slab sharing costs nothing.
//
// The batch is atomic to readers: they are never blocked and observe
// either the pre-batch view or the post-batch view — a prefix of the
// final insertion sequence cut at a batch boundary, never a torn
// intermediate.
//
// On a durable store the batch is group-committed: ONE log record and
// (under SyncBatch) ONE fsync cover the whole batch before it is
// applied, so a batch survives a crash all-or-nothing. If durability
// fails the batch is NOT applied, AddBatch reports 0, and the failure
// is sticky via Err.
func (s *Store) AddBatch(entries []Entry) (added int) {
	if len(entries) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil && !s.appendLocked(s.records(entries), "batch") {
		return 0
	}
	return s.addBatchLocked(entries)
}

// addBatchLocked applies a batch to the builder and publishes it; the
// caller holds mu (or owns the store exclusively, as recovery does).
func (s *Store) addBatchLocked(entries []Entry) (added int) {
	total := 0
	for _, e := range entries {
		total += len(e.Config)
	}
	// Batch-level slabs: version records plus one backing array each for
	// the cloned configurations and their float coordinates, carved
	// sequentially as the entries are inserted.
	slab := make([]version, len(entries))
	ints := make([]int, total)
	floats := make([]float64, total)
	s.b.reserve(len(entries))
	for i, src := range entries {
		nv := len(src.Config)
		cfg := space.Config(ints[:nv:nv])
		coords := floats[:nv:nv]
		ints, floats = ints[nv:], floats[nv:]
		for j, v := range src.Config {
			cfg[j] = v
			coords[j] = float64(v)
		}
		e := &slab[i]
		e.cfg = cfg
		e.coords = coords
		e.lambda = src.Lambda
		e.hash = hashConfig(cfg)
		s.b.seq++
		if s.b.insertVersion(e, s.b.seq) {
			added++
		}
	}
	s.cur.Store(s.b.publish())
	return added
}

// Lookup returns the stored value for an exact configuration match.
func (s *Store) Lookup(c space.Config) (float64, bool) {
	return s.cur.Load().lookup(c)
}

// Entries returns a copy of the stored entries in insertion order.
func (s *Store) Entries() []Entry { return s.cur.Load().list() }

// Neighbors collects every simulated configuration within distance <= d of
// w (lines 7-16 of Algorithms 1-2), oldest-first, with one linear scan of
// every live entry — the pseudo-code's loop over (Wsim, λsim). It reads
// the published view lock-free, so it never blocks concurrent writers
// (or vice versa). It is the allocating wrapper over NeighborsInto.
func (s *Store) Neighbors(w space.Config, d float64) *Neighborhood {
	nb := s.NeighborsInto(new(Neighborhood), w, d)
	nb.releaseScratch()
	return nb
}

// NeighborsInto is Neighbors into a caller-owned buffer: the result
// slices and the query's internal scratch (collected hits) reuse buf's
// backing arrays, so a warm buffer answers radius queries without heap
// allocations. buf must not be used by concurrent queries; the returned
// pointer is buf.
func (s *Store) NeighborsInto(buf *Neighborhood, w space.Config, d float64) *Neighborhood {
	return neighborsInto(buf, s.cur.Load(), s.metric, w, d)
}

// NearestK returns the k closest simulated configurations within
// distance d of w — identical to Neighbors(w, d).NearestK(k): insertion
// order when at most k entries are in range, otherwise ordered by
// (distance, insertion sequence) with ties oldest-first. It runs the same
// scan as Neighbors and selects from its hits directly, without building
// the full radius neighbourhood first. k <= 0 means no cap.
func (s *Store) NearestK(w space.Config, d float64, k int) *Neighborhood {
	nb := s.NearestKInto(new(Neighborhood), w, d, k)
	nb.releaseScratch()
	return nb
}

// NearestKInto is NearestK into a caller-owned buffer, allocation-free
// once the buffer is warm.
func (s *Store) NearestKInto(buf *Neighborhood, w space.Config, d float64, k int) *Neighborhood {
	return nearestKInto(buf, s.cur.Load(), s.metric, w, d, k)
}

// AllSamples returns the whole store as a Neighborhood (distances zeroed),
// the form consumed by global variogram identification.
func (s *Store) AllSamples() *Neighborhood {
	entries := s.Entries()
	nb := &Neighborhood{
		Coords: make([][]float64, len(entries)),
		Values: make([]float64, len(entries)),
		Dists:  make([]float64, len(entries)),
	}
	for i, e := range entries {
		nb.Coords[i] = e.Config.Floats()
		nb.Values[i] = e.Lambda
	}
	return nb
}

// Snapshot freezes the current contents in O(1). The snapshot is
// immutable: later Adds to the store — including overwrites of
// configurations it contains — are invisible to it, at zero copying
// cost.
func (s *Store) Snapshot() Snapshot {
	return Snapshot{v: s.cur.Load(), metric: s.metric}
}

// Reset empties the store. Concurrent readers observe either the old or
// the new (empty) view. On a durable store the log is truncated behind
// an empty snapshot, so the emptiness survives a restart (a rotation
// failure is sticky via Err, like any write).
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = builder{}
	s.cur.Store(emptyView)
	if s.log == nil || s.walErr != nil || s.closed {
		return
	}
	if err := s.log.Rotate(nil); err != nil {
		s.walErr = err
	}
}
