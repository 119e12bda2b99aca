// Package store implements the (Wsim, λsim) memory of Algorithms 1-2: the
// matrix of already-simulated configurations and their measured metric
// values, with the L1 radius queries that collect the kriging support of
// a new configuration.
//
// # Concurrency: one builder, one published view
//
// The store is safe for concurrent use. One writer at a time, under the
// store's mutex, mutates a private builder — an append-only entries
// array with capacity doubling plus an incrementally updated hash table
// — and publishes an immutable view through an atomic pointer, so
// Lookup, Neighbors, Len, Snapshot and the other read paths never take
// a lock. A view is pinned by its entries length (its epoch): later
// inserts append beyond every older view's length and are filtered out
// of shared-table probes by position, which makes inserts amortized
// O(1) instead of the O(store size) of a copy-on-write scheme.
// Re-adding a configuration appends an O(1) replacement version that
// keeps the original sequence stamp; views that contain the replacement
// skip the superseded version, while older views (and Snapshots) keep
// reporting the value current at their epoch. The sequence stamp
// preserves the insertion order the sequential pseudo-code relies on
// (neighbourhoods, Entries and AllSamples are always reported
// oldest-first, so NearestK tie-breaking stays deterministic), which
// the append position alone does not once a configuration has been
// overwritten.
//
// AddBatch is the bulk-write path: it stamps a batch in input order and
// publishes it as one view, so ingesting a replayed trace, a restored
// campaign or a batch-evaluation commit costs one publication rather
// than one per entry, with results indistinguishable from a loop of
// Adds. A batch is atomic to readers: they observe either the pre-batch
// or the post-batch view, never a partly applied batch.
//
// Writers are serialised rather than spread over partitions: every
// durable write already holds the lock across its log append, replay
// inserts from one goroutine, and a campaign inserts once per
// simulation, so writers never had parallelism to win.
//
// # Radius queries: one linear scan
//
// Neighbors(w, d) is lines 7-16 of Algorithms 1-2: one pass over every
// live entry of the view, keeping those within distance d of w under
// the store's metric, then a sort on the sequence number so the
// neighbourhood comes back oldest-first even after overwrites. The scan
// stops each distance at d: the metric's bounded kernel
// (space.Metric.Within) sums four coordinates at a time and gives up on
// an entry as soon as the partial sum is past d, which at the hevc
// operating point (Nv = 23, d <= 5) leaves most of each configuration
// unread. The partial sums are exact integers, so the hits and their
// distances are those of the full computation. Liveness, an atomic
// load, is read only for entries in range. Each entry carries its float
// coordinates precomputed at insertion, so the scan hands out the
// kriging support without conversion. On the paper's
// workloads a lattice-bucket spatial index measured slower than this
// scan (it only wins at low Nv with thousands of entries, a combination
// none of them reaches), so the scan is the only path.
//
// NearestK(w, d, k) runs the same scan and selects the k nearest hits by
// (distance, sequence) straight from its scratch, with results exactly
// equal to Neighbors(w, d).NearestK(k). The *Into variants
// (NeighborsInto, NearestKInto) refill a caller-owned Neighborhood
// buffer — result slices and collection scratch included — so warm
// steady-state queries allocate nothing; the plain forms are thin
// allocating wrappers.
//
// Snapshot freezes the current contents in O(1) — it is the current
// view pointer: the batch evaluator uses it to make all interpolation
// decisions of one batch against the store as it stood on entry,
// regardless of concurrent writers. Snapshots are immune to later
// overwrites of the entries they contain.
//
// # Persistence: Open and the write-ahead log
//
// Open(metric, Options{Durability: &DurabilityOptions{Dir: dir}})
// returns a store whose writes are durable: every Add/AddBatch appends
// one checksummed, fsynced record to a write-ahead segment log
// (internal/store/wal) before touching memory, under the same writer
// lock — group commit, O(1) allocations per batch — and reopening the
// same directory replays the log back into the store, bit-identical
// query surface included. Recovery truncates a torn final record (the residue of a
// crash mid-append) and refuses interior corruption with
// wal.ErrCorrupt; Compact doubles as log truncation by cutting an
// atomically-renamed snapshot of the compacted contents and deleting
// the superseded files. After any I/O error the store goes fail-stop:
// writes return the sticky error (also via Err()), reads keep working.
// A nil Durability (and New) means a pure in-memory store with no I/O
// anywhere.
package store
