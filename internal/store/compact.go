package store

// Versions returns the number of entry versions currently held in
// memory, including the superseded overwrite versions that Compact
// reclaims. Versions() == Len() when every stored configuration has
// exactly one version; the difference is the memory the overwrite path's
// O(1) versioned appends have accumulated since the last Compact.
func (s *Store) Versions() int { return len(s.cur.Load().entries) }

// Compact rebuilds the builder keeping only the current version of every
// configuration, dropping the superseded versions that overwrites append
// (the overwrite path is O(1) because it never removes the old version
// in place — Compact is where that debt is repaid). It returns the
// number of superseded versions dropped.
//
// The current versions are re-inserted into a fresh builder with their
// original sequence stamps and published as one view, so
// neighbourhoods, lookup results, and the insertion order are
// unchanged. Previously published views and Snapshots keep their own
// frozen entry arrays and tables: they are unaffected and still pin the
// old versions until released, which is why Compact frees memory
// promptly only once old snapshots are gone.
//
// Compact blocks writers for one pass over the store; concurrent
// readers stay lock-free throughout.
//
// On a durable store Compact also truncates the log: the compacted
// contents are written as one snapshot file and every older log segment
// is deleted (wal.Log.Rotate), so the disk sheds the superseded
// versions at the same moment memory does and recovery replays the
// snapshot instead of the whole history. A truncation failure is sticky
// via Err; the in-memory compaction still happened.
func (s *Store) Compact() (dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.b.entries; len(old) != s.b.live {
		nb := builder{seq: s.b.seq}
		nb.reserve(s.b.live)
		for _, e := range old {
			if e.replacedBy.Load() != 0 {
				continue // superseded: a newer version of e.cfg follows
			}
			// cfg and coords are immutable, so the fresh version shares
			// them with the one older views still hold.
			nb.insertVersion(&version{cfg: e.cfg, coords: e.coords, lambda: e.lambda, hash: e.hash}, e.seq)
		}
		dropped = len(old) - len(nb.entries)
		s.b = nb
		s.cur.Store(s.b.publish())
	}
	if s.log == nil || s.walErr != nil || s.closed {
		return dropped
	}
	if err := s.log.Rotate(s.records(s.cur.Load().list())); err != nil {
		s.walErr = err
	}
	return dropped
}
