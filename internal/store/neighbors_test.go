package store

import (
	"fmt"
	"math"
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

// refDistance is the serial reference distance of each metric, widened
// to float64: the full computation the store's bounded scan must agree
// with.
func refDistance(metric space.Metric, a, b space.Config) float64 {
	var sum, max int
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		switch metric {
		case space.MetricL2:
			sum += d * d
		case space.MetricLInf:
			if d > max {
				max = d
			}
		default:
			sum += d
		}
	}
	switch metric {
	case space.MetricL2:
		return math.Sqrt(float64(sum))
	case space.MetricLInf:
		return float64(max)
	default:
		return float64(sum)
	}
}

// bruteNeighbors is the reference radius query: the entries within
// distance d of w, in the order given (Entries order is insertion order).
func bruteNeighbors(entries []Entry, metric space.Metric, w space.Config, d float64) *Neighborhood {
	nb := &Neighborhood{}
	for _, e := range entries {
		if dist := refDistance(metric, w, e.Config); dist <= d {
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

// scanRadii are the radii the bounded scan is checked at: nothing
// admitted (NaN, negative), the paper's sweep with fractional radii
// between, and radii too large to stop early on.
var scanRadii = []float64{math.NaN(), -1, 0, 0.5, 1, 2, 2.5, 3, 4, 5, 1e9, math.Inf(1)}

// TestBoundedScanMatchesBruteForce checks the store's early-stopping
// radius scan against a brute-force filter of Entries() with the full
// serial distance: the hits, their distances and their order, for
// NeighborsInto and NearestKInto, under every metric. The store walks a
// min+1 trajectory at Nv = 23 (coordinates 7-14, the hevc operating
// point) and at Nv = 5 (coordinates 0-60, long enough for 300 points),
// then overwrites part of it; an older Snapshot
// taken before the overwrites and later inserts must answer from its own
// epoch.
func TestBoundedScanMatchesBruteForce(t *testing.T) {
	for _, metric := range []space.Metric{space.MetricL1, space.MetricL2, space.MetricLInf} {
		for _, shape := range []struct{ nv, lo, hi int }{{5, 0, 60}, {23, 7, 14}} {
			nv := shape.nv
			r := rng.New(uint64(41 + nv))
			s := New(metric)
			walk := minPlusOneWalk(r, nv, shape.lo, shape.hi, 300).Entries()
			s.AddBatch(walk[:200])
			old := s.Snapshot()
			oldEntries := old.Entries()
			for i := 0; i < 60; i++ { // overwrites of earlier configurations
				s.Add(walk[r.Intn(200)].Config, float64(1000+i))
			}
			s.AddBatch(walk[200:])
			views := []struct {
				name    string
				entries []Entry
				into    func(*Neighborhood, space.Config, float64) *Neighborhood
				nearest func(*Neighborhood, space.Config, float64, int) *Neighborhood
			}{
				{"store", s.Entries(), s.NeighborsInto, s.NearestKInto},
				{"old snapshot", oldEntries, old.NeighborsInto, old.NearestKInto},
			}
			var buf, kbuf Neighborhood
			for _, v := range views {
				for q := 0; q < 40; q++ {
					w := walk[r.Intn(len(walk))].Config.Clone()
					if q%2 == 1 { // off the stored points too
						w[r.Intn(nv)] += r.IntRange(-2, 2)
					}
					for _, d := range scanRadii {
						want := bruteNeighbors(v.entries, metric, w, d)
						ctx := fmt.Sprintf("%v nv=%d %s w=%v d=%v", metric, nv, v.name, w, d)
						assertSameNeighborhood(t, ctx, v.into(&buf, w, d), want)
						for _, k := range []int{0, 1, 3, 10} {
							assertSameNeighborhood(t, fmt.Sprintf("%s k=%d", ctx, k), v.nearest(&kbuf, w, d, k), want.NearestK(k))
						}
					}
				}
			}
		}
	}
}
