package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule, together with the sample count it was taken over.
// +Inf entries (failed requests) sort last; an empty sample gives 0.
func quantile(xs []float64, q float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// median is quantile(xs, 0.5) without the count.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// beyond returns how many samples lie strictly above the q-quantile's
// rank, the support a tail percentile rests on.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// poissonArrivals returns the arrival offsets of a Poisson process of
// the given rate (per second) on [0, span), drawn from rng.
func poissonArrivals(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		out = append(out, at)
	}
}
