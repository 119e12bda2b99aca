package store

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// BenchmarkNeighborsScaling is the package-local micro view of the radius
// query (the 1k/10k/100k sweep lives in internal/bench): per-query cost of
// a d = 3 scan over a 4-variable hypercube, through the allocating
// wrapper, a reused buffer, and the k-nearest selection; then the
// operating point of the Table I replay (see benchOperatingPoint).
func BenchmarkNeighborsScaling(b *testing.B) {
	b.Run("nv=23", benchOperatingPoint)
	const nv, coordMax, d = 4, 25, 3.0
	draw := func(r *rng.Stream) space.Config {
		c := make(space.Config, nv)
		for i := range c {
			c[i] = r.IntRange(0, coordMax)
		}
		return c
	}
	qr := rng.New(99)
	queries := make([]space.Config, 256)
	for i := range queries {
		queries[i] = draw(qr)
	}
	for _, n := range []int{1000, 10000} {
		r := rng.New(uint64(n))
		s := New(space.MetricL1)
		for s.Len() < n {
			s.Add(draw(r), r.Float64())
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Neighbors(queries[i%len(queries)], d)
			}
		})
		// The zero-allocation fast path: same query mix through a
		// reused buffer.
		b.Run(fmt.Sprintf("n=%d/into", n), func(b *testing.B) {
			var buf Neighborhood
			for i := 0; i < b.N; i++ {
				s.NeighborsInto(&buf, queries[i%len(queries)], d)
			}
		})
		b.Run(fmt.Sprintf("n=%d/nearest10", n), func(b *testing.B) {
			var buf Neighborhood
			for i := 0; i < b.N; i++ {
				s.NearestKInto(&buf, queries[i%len(queries)], d, 10)
			}
		})
	}
}

// minPlusOneWalk draws a store shaped like a recorded min+1 trajectory at
// the hevc operating point: rounds of Nv candidates, each one step above
// the current configuration on one coordinate, with the walk moving to a
// random candidate after every round. Coordinates stay within [lo, hi].
func minPlusOneWalk(r *rng.Stream, nv, lo, hi, n int) *Store {
	s := New(space.MetricL1)
	cur := make(space.Config, nv)
	for i := range cur {
		cur[i] = lo
	}
	for s.Len() < n {
		var cands []space.Config
		for i := range cur {
			if cur[i] < hi {
				cands = append(cands, cur.With(i, cur[i]+1))
			}
		}
		if len(cands) == 0 {
			break
		}
		for _, c := range cands {
			s.Add(c, r.Float64())
		}
		cur = cands[r.Intn(len(cands))]
	}
	return s
}

// benchOperatingPoint measures the radius scan where the Table I replay
// spends its time: Nv = 23, about 2,000 stored configurations with
// coordinates 7-14 along a min+1 walk, the queries being every eighth
// stored configuration (as ModePaper queries recorded points), at the
// Table I distances d = 2..5. Every query is served from a reused buffer.
func benchOperatingPoint(b *testing.B) {
	const nv, lo, hi, n = 23, 7, 14, 2000
	s := minPlusOneWalk(rng.New(23), nv, lo, hi, n)
	var queries []space.Config
	for i, e := range s.Entries() {
		if i%8 == 0 {
			queries = append(queries, e.Config)
		}
	}
	for _, d := range []float64{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("n=%d/d=%g/into", s.Len(), d), func(b *testing.B) {
			var buf Neighborhood
			for i := 0; i < b.N; i++ {
				s.NeighborsInto(&buf, queries[i%len(queries)], d)
			}
		})
		b.Run(fmt.Sprintf("n=%d/d=%g/nearest10", s.Len(), d), func(b *testing.B) {
			var buf Neighborhood
			for i := 0; i < b.N; i++ {
				s.NearestKInto(&buf, queries[i%len(queries)], d, 10)
			}
		})
	}
}
