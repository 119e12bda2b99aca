package store

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// assertSameNeighborhood fails unless got and want are bit-identical:
// same length, same coordinate vectors in the same order, same values
// and same distances.
func assertSameNeighborhood(t *testing.T, ctx string, got, want *Neighborhood) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", ctx, got.Len(), want.Len())
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("%s: Values[%d] = %v, want %v", ctx, i, got.Values[i], want.Values[i])
		}
		if got.Dists[i] != want.Dists[i] {
			t.Fatalf("%s: Dists[%d] = %v, want %v", ctx, i, got.Dists[i], want.Dists[i])
		}
		if len(got.Coords[i]) != len(want.Coords[i]) {
			t.Fatalf("%s: Coords[%d] dim mismatch", ctx, i)
		}
		for j := range want.Coords[i] {
			if got.Coords[i][j] != want.Coords[i][j] {
				t.Fatalf("%s: Coords[%d][%d] = %v, want %v", ctx, i, j, got.Coords[i][j], want.Coords[i][j])
			}
		}
	}
}

func randConfig(r *rng.Stream, nv, lo, hi int) space.Config {
	c := make(space.Config, nv)
	for i := range c {
		c[i] = r.IntRange(lo, hi)
	}
	return c
}

// bruteNeighbors is the reference radius query: the entries within
// distance d of w, in the order given (Entries order is insertion order).
func bruteNeighbors(entries []Entry, metric space.Metric, w space.Config, d float64) *Neighborhood {
	nb := &Neighborhood{}
	for _, e := range entries {
		if dist := metric.Distance(w, e.Config); dist <= d {
			nb.Coords = append(nb.Coords, e.Config.Floats())
			nb.Values = append(nb.Values, e.Lambda)
			nb.Dists = append(nb.Dists, dist)
		}
	}
	return nb
}

// TestNeighborsOverwrite pins the overwrite semantics: re-adding a
// configuration updates the value a radius query sees without
// duplicating the entry or disturbing its insertion rank.
func TestNeighborsOverwrite(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{0, 0}, 1)
	s.Add(space.Config{1, 0}, 2)
	s.Add(space.Config{0, 0}, 3) // overwrite oldest
	nb := s.Neighbors(space.Config{0, 0}, 2)
	if nb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", nb.Len())
	}
	if nb.Values[0] != 3 || nb.Values[1] != 2 {
		t.Errorf("Values = %v, want [3 2] (overwritten value at original rank)", nb.Values)
	}
}

// TestNeighborsAfterReset checks radius queries see nothing after the
// store is emptied and only the new entries once it is refilled.
func TestNeighborsAfterReset(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{1, 1}, 1)
	s.Reset()
	if nb := s.Neighbors(space.Config{1, 1}, 4); nb.Len() != 0 {
		t.Fatalf("neighbourhood after Reset: %d entries", nb.Len())
	}
	s.Add(space.Config{2, 2}, 5)
	nb := s.Neighbors(space.Config{1, 1}, 4)
	if nb.Len() != 1 || nb.Values[0] != 5 {
		t.Fatalf("post-Reset refill: %v", nb)
	}
}
