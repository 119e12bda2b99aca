package store

import (
	"sort"
	"sync/atomic"

	"repro/internal/fnv1a"
	"repro/internal/space"
)

// version is one stored configuration version. The float coordinates are
// precomputed at insertion so radius scans hand the kriging support out
// without per-query conversion or allocation; the sequence number
// recovers the insertion order, which an overwrite's later append
// position does not.
//
// Versions are immutable after publication with one exception,
// replacedBy, which is why that field alone is atomic. Every other field
// is written exactly once, before the version becomes reachable from any
// atomic slot or published view, so lock-free readers that arrive
// through an atomic load observe it fully initialised.
type version struct {
	cfg    space.Config
	coords []float64
	lambda float64
	hash   uint64 // hashConfig(cfg), kept for table regrows
	seq    uint64 // insertion stamp (overwrites keep the original)
	pos    int32  // append position within the builder
	// prevVersion links to the version this one overwrote (same cfg,
	// same seq). Readers whose view predates this version walk the chain
	// back to the version that was current at their epoch.
	prevVersion *version
	// replacedBy holds pos+1 of the version that overwrote this one (0 =
	// still current). A view of n versions treats this one as live
	// unless its replacement is itself inside the view (replacedBy <= n).
	replacedBy atomic.Int32
}

// live reports whether e is the current version of its configuration in
// a view containing n versions.
func (e *version) live(n int) bool {
	rb := e.replacedBy.Load()
	return rb == 0 || int(rb) > n
}

// view is an immutable picture of the store, published atomically after
// every write (once per AddBatch). The entries slice is a prefix of the
// builder's append-only backing array: later appends write beyond its
// length, never inside it, so the view stays frozen at zero copying
// cost. The key table is shared with newer views — its slots only ever
// gain versions, which readers filter out by position — so a view is
// pinned entirely by its entries length (its epoch).
type view struct {
	entries []*version // visible prefix, append order
	keys    *table     // config -> newest version
	live    int        // distinct configurations in this view
}

var emptyView = &view{}

// lookup resolves an exact configuration match within the view.
func (v *view) lookup(c space.Config) (float64, bool) {
	t := v.keys
	if t == nil {
		return 0, false
	}
	hash := hashConfig(c)
	n := len(v.entries)
	for i := t.start(hash); ; i = (i + 1) & t.mask {
		e := t.slots[i].Load()
		if e == nil {
			return 0, false
		}
		if e.hash != hash || !e.cfg.Equal(c) {
			continue // different config probing the same slot
		}
		// The slot holds the newest version; rewind to the newest one
		// this view contains.
		for e != nil && int(e.pos) >= n {
			e = e.prevVersion
		}
		if e == nil {
			return 0, false
		}
		return e.lambda, true
	}
}

// list returns the live entries of the view in insertion order.
func (v *view) list() []Entry {
	n := len(v.entries)
	live := make([]*version, 0, v.live)
	for _, e := range v.entries {
		if e.live(n) {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	out := make([]Entry, len(live))
	for i, e := range live {
		out[i] = Entry{Config: e.cfg, Lambda: e.lambda}
	}
	return out
}

// builder is the private mutable state of the store, guarded by the
// store's writer mutex. It appends versions with capacity doubling and
// updates the key table incrementally, so an insert is amortized O(1);
// the immutable views it publishes share all of that structure.
type builder struct {
	entries []*version
	keys    *table
	live    int
	seq     uint64 // last insertion stamp handed out
}

// reserve pre-sizes the builder for n further inserts: the entry backing
// array and the key table grow once, up front, instead of stepwise
// inside the batch loop. Published views are unaffected — they pin their
// own (old) backing arrays, exactly as with append-driven growth.
func (b *builder) reserve(n int) {
	if need := len(b.entries) + n; cap(b.entries) < need {
		grown := make([]*version, len(b.entries), need)
		copy(grown, b.entries)
		b.entries = grown
	}
	if b.keys == nil {
		b.keys = newTable(tableSizeFor(b.live + n))
	} else if b.keys.overloaded(b.live + n) {
		b.keys = b.keys.regrowTo(tableSizeFor(b.live + n))
	}
}

// insert records (cfg, lambda) in the builder without publishing, with
// the next insertion stamp.
func (b *builder) insert(cfg space.Config, lambda float64) (added bool) {
	c := cfg.Clone()
	b.seq++
	return b.insertVersion(&version{
		cfg:    c,
		coords: c.Floats(),
		lambda: lambda,
		hash:   hashConfig(c),
	}, b.seq)
}

// insertVersion records a caller-allocated version whose cfg, coords,
// lambda and hash are already set (cfg and coords owned by the store
// from here on) — the bulk path carves versions out of per-batch slabs
// instead of allocating three objects per result. A new configuration
// takes seq; re-adding an existing one appends a replacement version
// that keeps the original stamp (so the insertion order is stable) and
// reports added=false. Position, stamp and version link are filled here.
func (b *builder) insertVersion(e *version, seq uint64) (added bool) {
	if b.keys == nil {
		b.keys = newTable(minTableSize)
	}
	prev := b.keys.findConfig(e.hash, e.cfg)
	e.pos = int32(len(b.entries))
	if prev != nil {
		e.seq = prev.seq
		e.prevVersion = prev
	} else {
		e.seq = seq
		if b.keys.overloaded(b.live + 1) {
			b.keys = b.keys.regrow()
		}
		b.live++
	}
	// Publication order matters for lock-free readers: every plain field
	// of e (including its version link) must be complete before the
	// key-table store makes it reachable.
	b.entries = append(b.entries, e)
	b.keys.storeConfig(e.hash, e)
	if prev != nil {
		// Views published from here on contain e, so they must see its
		// predecessor as superseded; older views filter the mark out
		// because e.pos lies beyond their epoch.
		prev.replacedBy.Store(e.pos + 1)
	}
	return prev == nil
}

// publish captures the builder as an immutable view.
func (b *builder) publish() *view {
	return &view{
		entries: b.entries,
		keys:    b.keys,
		live:    b.live,
	}
}

// hashConfig hashes a configuration for key probing, allocation-free
// (unlike hashing cfg.Key()).
func hashConfig(c space.Config) uint64 {
	h := fnv1a.Offset
	for _, v := range c {
		h = fnv1a.Mix(h, uint64(int64(v)))
	}
	return h
}

// neighborsInto collects every entry within distance <= d of w from a
// frozen view into the caller's buffer, reusing its slices and
// collection scratch (allocation-free once warm). The sequence sort
// restores the insertion order that overwrites break, so downstream
// tie-breaking (NearestK keeps ties oldest-first) is well defined.
func neighborsInto(buf *Neighborhood, v *view, metric space.Metric, w space.Config, d float64) *Neighborhood {
	collect(buf, v, metric, w, d)
	return finishHitsInto(buf)
}

// nearestKInto collects the k nearest entries within distance d into the
// caller's buffer — exactly Neighbors(w, d).NearestK(k), ordering
// contract included (insertion order when everything fits, (distance,
// sequence) with ties oldest-first when truncated) — selecting straight
// from the scan's hits on the buffer's scratch instead of materialising
// the full radius neighbourhood first. k <= 0 degrades to the plain
// radius query.
func nearestKInto(buf *Neighborhood, v *view, metric space.Metric, w space.Config, d float64, k int) *Neighborhood {
	collect(buf, v, metric, w, d)
	return finishNearestKInto(buf, k)
}

// collect gathers every live entry within distance <= d of w into the
// buffer's hits with one scan of the view — lines 7-16 of Algorithms
// 1-2.
func collect(buf *Neighborhood, v *view, metric space.Metric, w space.Config, d float64) {
	hits := buf.q.hits[:0]
	n := len(v.entries)
	for _, e := range v.entries {
		if !e.live(n) {
			continue
		}
		if dist := metric.Distance(w, e.cfg); dist <= d {
			hits = append(hits, hit{e: e, dist: dist})
		}
	}
	buf.q.hits = hits
}
