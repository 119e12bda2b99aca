package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/space"
)

// TestConcurrentAddLookup hammers one store from 32 goroutines with
// disjoint key ranges and checks the final contents are exact. Run with
// -race to validate the copy-on-write publication protocol.
func TestConcurrentAddLookup(t *testing.T) {
	const goroutines = 32
	const perG = 100
	s := New(space.MetricL1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c := space.Config{g, i}
				s.Add(c, float64(g*perG+i))
				// Interleave reads on the hot paths.
				if v, ok := s.Lookup(c); !ok || v != float64(g*perG+i) {
					t.Errorf("Lookup(%v) = %v, %v", c, v, ok)
				}
				s.Neighbors(c, 2)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", s.Len(), goroutines*perG)
	}
	if got := len(s.Entries()); got != goroutines*perG {
		t.Fatalf("Entries = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if v, ok := s.Lookup(space.Config{g, i}); !ok || v != float64(g*perG+i) {
				t.Fatalf("post-race Lookup({%d,%d}) = %v, %v", g, i, v, ok)
			}
		}
	}
}

// TestConcurrentNeighbors hammers the radius and k-nearest queries while
// writers grow the store. Every writer must read its own insert back at
// distance zero, and once quiesced every query surface must agree
// exactly with a brute-force scan of Entries. Run with -race to validate
// the lock-free view publication.
func TestConcurrentNeighbors(t *testing.T) {
	const goroutines = 8
	const perG = 150
	s := New(space.MetricL1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf Neighborhood
			for i := 0; i < perG; i++ {
				c := space.Config{g, i % 12, i / 12}
				lam := float64(g*perG + i)
				s.Add(c, lam)
				nb := s.NeighborsInto(&buf, c, 2)
				own := false
				for j, d := range nb.Dists {
					own = own || (d == 0 && nb.Values[j] == lam)
				}
				if !own {
					t.Errorf("Neighbors(%v, 2) misses the caller's own insert", c)
				}
				s.NearestK(c, 40, 10)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", s.Len(), goroutines*perG)
	}
	entries := s.Entries()
	snap := s.Snapshot()
	var buf, kbuf Neighborhood
	for g := 0; g < goroutines; g++ {
		w := space.Config{g, 5, 5}
		for _, d := range []float64{1, 3, 7} {
			want := bruteNeighbors(entries, space.MetricL1, w, d)
			assertSameNeighborhood(t, "quiesced", s.Neighbors(w, d), want)
			assertSameNeighborhood(t, "quiesced into", s.NeighborsInto(&buf, w, d), want)
			assertSameNeighborhood(t, "quiesced snapshot", snap.Neighbors(w, d), want)
			for _, k := range []int{1, 3, 8} {
				assertSameNeighborhood(t, "quiesced nearest", s.NearestKInto(&kbuf, w, d, k), want.NearestK(k))
			}
		}
	}
}

// TestSnapshotFreezesContents checks that a snapshot ignores later Adds
// and keeps insertion order.
func TestSnapshotFreezesContents(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{0, 0}, 1)
	s.Add(space.Config{1, 0}, 2)
	snap := s.Snapshot()
	s.Add(space.Config{0, 1}, 3)

	if snap.Len() != 2 {
		t.Errorf("snapshot Len = %d, want 2", snap.Len())
	}
	if s.Len() != 3 {
		t.Errorf("store Len = %d, want 3", s.Len())
	}
	if _, ok := snap.Lookup(space.Config{0, 1}); ok {
		t.Error("snapshot sees a post-snapshot Add")
	}
	if v, ok := snap.Lookup(space.Config{1, 0}); !ok || v != 2 {
		t.Errorf("snapshot Lookup = %v, %v", v, ok)
	}
	nb := snap.Neighbors(space.Config{0, 0}, 5)
	if nb.Len() != 2 || nb.Values[0] != 1 || nb.Values[1] != 2 {
		t.Errorf("snapshot Neighbors = %+v", nb)
	}
	es := snap.Entries()
	if len(es) != 2 || es[0].Lambda != 1 || es[1].Lambda != 2 {
		t.Errorf("snapshot Entries = %+v", es)
	}
}

// TestZeroSnapshot checks the zero Snapshot behaves as empty.
func TestZeroSnapshot(t *testing.T) {
	var snap Snapshot
	if snap.Len() != 0 {
		t.Error("zero snapshot not empty")
	}
	if _, ok := snap.Lookup(space.Config{1}); ok {
		t.Error("zero snapshot Lookup hit")
	}
	if snap.Neighbors(space.Config{1}, 10).Len() != 0 {
		t.Error("zero snapshot has neighbours")
	}
}

// TestInsertionOrderWithOverwrites checks that Neighbors, NearestK and
// Entries (store and snapshot) report entries oldest-first, and that an
// overwrite — per-Add or inside a batch — keeps its configuration's
// original rank although the new version is appended at a later
// position.
func TestInsertionOrderWithOverwrites(t *testing.T) {
	s := New(space.MetricL1)
	const n = 50
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		s.Add(space.Config{i}, float64(i))
		want[i] = float64(i)
	}
	s.Add(space.Config{3}, 103)
	s.AddBatch([]Entry{{Config: space.Config{7}, Lambda: 107}, {Config: space.Config{n}, Lambda: n}, {Config: space.Config{0}, Lambda: 100}})
	want[3], want[7], want[0] = 103, 107, 100
	want = append(want, n)

	check := func(label string, got []float64) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s order:\n got %v\nwant %v", label, got, want)
		}
	}
	lambdas := func(es []Entry) []float64 {
		out := make([]float64, len(es))
		for i, e := range es {
			out[i] = e.Lambda
		}
		return out
	}
	check("Entries", lambdas(s.Entries()))
	check("Snapshot.Entries", lambdas(s.Snapshot().Entries()))
	check("Neighbors", s.Neighbors(space.Config{0}, 2*n).Values)
	check("Snapshot.Neighbors", s.Snapshot().Neighbors(space.Config{0}, 2*n).Values)
	check("NearestK (all fit)", s.NearestK(space.Config{0}, 2*n, n+1).Values)
}
