package store

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/space"
)

func TestAddLookup(t *testing.T) {
	s := New(space.MetricL1)
	if added := s.Add(space.Config{1, 2}, -3.5); !added {
		t.Error("first Add reported not-added")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	v, ok := s.Lookup(space.Config{1, 2})
	if !ok || v != -3.5 {
		t.Errorf("Lookup = %v, %v", v, ok)
	}
	if _, ok := s.Lookup(space.Config{2, 1}); ok {
		t.Error("Lookup found a missing config")
	}
}

func TestAddOverwrites(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{1}, 1)
	if added := s.Add(space.Config{1}, 2); added {
		t.Error("duplicate Add reported added")
	}
	if s.Len() != 1 {
		t.Errorf("Len after duplicate = %d", s.Len())
	}
	v, _ := s.Lookup(space.Config{1})
	if v != 2 {
		t.Errorf("value not overwritten: %v", v)
	}
}

func TestAddClonesConfig(t *testing.T) {
	s := New(space.MetricL1)
	c := space.Config{1, 2}
	s.Add(c, 0)
	c[0] = 99
	if _, ok := s.Lookup(space.Config{1, 2}); !ok {
		t.Error("store contents aliased the caller's slice")
	}
}

// TestNeighborsMatchesBruteForce checks every radius and k-nearest query
// surface — Neighbors, NeighborsInto on a reused buffer, Snapshot and
// NearestKInto — against an independent reference scan, under all three
// metrics, with negative coordinates and overwrites in the mix.
func TestNeighborsMatchesBruteForce(t *testing.T) {
	for _, metric := range []space.Metric{space.MetricL1, space.MetricL2, space.MetricLInf} {
		r := rng.New(4)
		s := New(metric)
		// Reference: insertion order, an overwrite keeps its rank.
		var ref []Entry
		rank := map[string]int{}
		for i := 0; i < 200; i++ {
			c, lam := randConfig(r, 3, -3, 9), float64(i)
			s.Add(c, lam)
			if at, ok := rank[c.Key()]; ok {
				ref[at].Lambda = lam
			} else {
				rank[c.Key()] = len(ref)
				ref = append(ref, Entry{Config: c, Lambda: lam})
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("%v: Len = %d, want %d", metric, s.Len(), len(ref))
		}
		snap := s.Snapshot()
		var buf, kbuf Neighborhood
		for q := 0; q < 20; q++ {
			w := randConfig(r, 3, -4, 10)
			for _, d := range []float64{0, 1, 2, 5} {
				want := bruteNeighbors(ref, metric, w, d)
				ctx := fmt.Sprintf("%v w=%v d=%v", metric, w, d)
				assertSameNeighborhood(t, ctx, s.Neighbors(w, d), want)
				assertSameNeighborhood(t, "into "+ctx, s.NeighborsInto(&buf, w, d), want)
				assertSameNeighborhood(t, "snapshot "+ctx, snap.Neighbors(w, d), want)
				for _, k := range []int{1, 3, 8} {
					kctx := fmt.Sprintf("%s k=%d", ctx, k)
					assertSameNeighborhood(t, kctx, s.NearestKInto(&kbuf, w, d, k), want.NearestK(k))
					assertSameNeighborhood(t, "snapshot "+kctx, snap.NearestK(w, d, k), want.NearestK(k))
				}
			}
		}
	}
}

func TestNeighborsParallelSlices(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{0}, 1)
	s.Add(space.Config{1}, 2)
	nb := s.Neighbors(space.Config{0}, 3)
	if len(nb.Coords) != nb.Len() || len(nb.Dists) != nb.Len() {
		t.Error("neighbourhood slices out of sync")
	}
}

func TestNearestK(t *testing.T) {
	s := New(space.MetricL1)
	for i := 0; i < 10; i++ {
		s.Add(space.Config{i}, float64(i))
	}
	nb := s.Neighbors(space.Config{0}, 100)
	top3 := nb.NearestK(3)
	if top3.Len() != 3 {
		t.Fatalf("NearestK(3) has %d", top3.Len())
	}
	for i, d := range top3.Dists {
		if d != float64(i) {
			t.Errorf("NearestK order wrong: %v", top3.Dists)
		}
	}
	// k <= 0 and k >= Len return the whole set.
	if nb.NearestK(0).Len() != 10 || nb.NearestK(99).Len() != 10 {
		t.Error("NearestK boundary behaviour wrong")
	}
}

func TestEntriesCopyAndOrder(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{5}, 1)
	s.Add(space.Config{3}, 2)
	es := s.Entries()
	if len(es) != 2 || es[0].Config[0] != 5 || es[1].Config[0] != 3 {
		t.Errorf("Entries = %+v", es)
	}
	es[0].Lambda = 99
	if v, _ := s.Lookup(space.Config{5}); v == 99 {
		t.Error("Entries returned a live view")
	}
}

func TestAllSamples(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{1, 1}, -1)
	s.Add(space.Config{2, 2}, -2)
	nb := s.AllSamples()
	if nb.Len() != 2 {
		t.Errorf("AllSamples = %d", nb.Len())
	}
}

func TestReset(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{1}, 1)
	s.Reset()
	if s.Len() != 0 {
		t.Error("Reset did not clear")
	}
	if _, ok := s.Lookup(space.Config{1}); ok {
		t.Error("Reset left index entries")
	}
	s.Add(space.Config{1}, 2)
	if v, _ := s.Lookup(space.Config{1}); v != 2 {
		t.Error("store unusable after Reset")
	}
}

func TestMetricUsedForNeighbors(t *testing.T) {
	// L∞ and L1 differ for diagonal offsets.
	s1 := New(space.MetricL1)
	sInf := New(space.MetricLInf)
	c := space.Config{1, 1}
	s1.Add(c, 0)
	sInf.Add(c, 0)
	q := space.Config{0, 0}
	if s1.Neighbors(q, 1).Len() != 0 {
		t.Error("L1 store found diagonal point at d=1")
	}
	if sInf.Neighbors(q, 1).Len() != 1 {
		t.Error("Linf store missed diagonal point at d=1")
	}
}

func TestPropertyNeighborsSubsetOfStore(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := New(space.MetricL1)
		for i := 0; i < 30; i++ {
			s.Add(space.Config{r.IntRange(0, 6), r.IntRange(0, 6)}, r.Float64())
		}
		q := space.Config{r.IntRange(0, 6), r.IntRange(0, 6)}
		d := float64(r.Intn(6))
		nb := s.Neighbors(q, d)
		if nb.Len() > s.Len() {
			return false
		}
		for _, dist := range nb.Dists {
			if dist > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
