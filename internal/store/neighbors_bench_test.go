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
// wrapper, a reused buffer, and the k-nearest selection.
func BenchmarkNeighborsScaling(b *testing.B) {
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
