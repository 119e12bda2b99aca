// Package space models the Nv-dimensional configuration hypercube the
// paper's optimisation algorithms travel through.
//
// A configuration is an integer vector e = (e_0, ..., e_{Nv-1}) of
// approximation knobs: word-lengths for the fixed-point benchmarks or
// error-power indices for the sensitivity-analysis benchmark. The paper
// measures proximity between configurations with the L1 norm (Algorithms
// 1-2, line 9); L2 and L∞ are provided as well for the ablation benches.
package space

import (
	"fmt"
	"math"
	"strings"
)

// Config is an immutable-by-convention integer configuration vector.
type Config []int

// Clone returns an independent copy of c.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and o are the same vector.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i, v := range c {
		if v != o[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for use in maps.
func (c Config) Key() string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// String renders the configuration as e.g. "(8,12,10)".
func (c Config) String() string { return "(" + c.Key() + ")" }

// Floats converts the configuration to a float64 slice, the coordinate
// form consumed by the kriging interpolator.
func (c Config) Floats() []float64 {
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = float64(v)
	}
	return out
}

// With returns a copy of c with dimension i set to v.
func (c Config) With(i, v int) Config {
	out := c.Clone()
	out[i] = v
	return out
}

// The bounded distance kernels below serve the store's radius scan
// (store NeighborsInto/NearestKInto), which evaluates them against every
// stored entry, so they are among the hottest scalar loops in the system.
// Each is unrolled four-wide and sums exact integers, so the result does
// not depend on the summation order. After every four-wide block the
// kernel stops once the partial sum is past its integer limit: the sum
// only grows, so that entry can no longer be within d. The limit is the
// largest integer sum that still passes the final dist <= d test, so an
// early stop never drops a hit, and every entry that is scanned to the
// end gets exactly the distance and verdict of the full computation.

// noStop is the integer limit that never stops a scan early.
const noStop = math.MaxInt

// exactInts bounds the integer sums whose float64 conversion is exact
// (2^53). A radius at or above it gets no early stop: past it, rounding
// can make float64(s) <= d hold for an integer s > floor(d).
const exactInts = 1 << 53

// withinL1 sums |a_i - b_i| and reports false as soon as a four-wide
// block leaves the partial sum above limit. On false the returned sum is
// a partial one.
func withinL1(a, b Config, limit int) (int, bool) {
	b = b[:len(a)]
	var s int
	for len(a) >= 4 {
		x, y := a[:4], b[:4]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		if d0 < 0 {
			d0 = -d0
		}
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d3 < 0 {
			d3 = -d3
		}
		s += (d0 + d2) + (d1 + d3)
		if s > limit {
			return s, false
		}
		a, b = a[4:], b[4:]
	}
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s, s <= limit
}

// withinL2 is withinL1 for the sum of squared differences.
func withinL2(a, b Config, limit int) (int, bool) {
	b = b[:len(a)]
	var s int
	for len(a) >= 4 {
		x, y := a[:4], b[:4]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s += (d0*d0 + d2*d2) + (d1*d1 + d3*d3)
		if s > limit {
			return s, false
		}
		a, b = a[4:], b[4:]
	}
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s, s <= limit
}

// withinLInf is withinL1 for the largest absolute difference.
func withinLInf(a, b Config, limit int) (int, bool) {
	b = b[:len(a)]
	var m int
	for len(a) >= 4 {
		x, y := a[:4], b[:4]
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		if d0 < 0 {
			d0 = -d0
		}
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d3 < 0 {
			d3 = -d3
		}
		if d2 > d0 {
			d0 = d2
		}
		if d3 > d1 {
			d1 = d3
		}
		if d1 > d0 {
			d0 = d1
		}
		if d0 > m {
			m = d0
			if m > limit {
				return m, false
			}
		}
		a, b = a[4:], b[4:]
	}
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m, m <= limit
}

// floorLimit is the largest integer s with float64(s) <= d, for a d that
// is neither NaN nor negative; noStop where float64 rounding would make
// that bound inexact.
func floorLimit(d float64) int {
	if d >= exactInts {
		return noStop
	}
	return int(d) // truncation is floor for d >= 0
}

// squareLimit is the largest integer sum of squares s with
// math.Sqrt(float64(s)) <= d, for a d that is neither NaN nor negative;
// noStop where d*d leaves the exactly representable integers.
func squareLimit(d float64) int {
	if d*d >= exactInts {
		return noStop
	}
	// In round-to-nearest arithmetic math.Sqrt(d*d) == d, so the
	// truncated square passes; the next integers may still round to a
	// root <= d.
	s := int(d * d)
	for math.Sqrt(float64(s+1)) <= d {
		s++
	}
	return s
}

// Metric identifies a distance function on the configuration hypercube.
type Metric int

// Supported metrics. MetricL1 is the paper's choice.
const (
	MetricL1 Metric = iota
	MetricL2
	MetricLInf
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case MetricL1:
		return "L1"
	case MetricL2:
		return "L2"
	case MetricLInf:
		return "Linf"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Within reports whether a and b lie within distance d of each other
// under the metric, and if so their distance as a float64 (integral
// metrics are widened). It is exactly dist <= d on the full distance,
// with the same dist, but it stops reading coordinates once the partial
// distance is past d, so the distance it returns with false is only a
// lower bound. A NaN or negative d admits nothing; a d of 2^53 or more
// (+Inf included) never stops early. Configurations of different
// dimension panic whatever d is.
func (m Metric) Within(a, b Config, d float64) (float64, bool) {
	if len(a) != len(b) {
		panic("space: distance on configs of different dimension")
	}
	if !(d >= 0) {
		return 0, false
	}
	switch m {
	case MetricL1:
		s, ok := withinL1(a, b, floorLimit(d))
		dist := float64(s)
		return dist, ok && dist <= d
	case MetricL2:
		s, ok := withinL2(a, b, squareLimit(d))
		dist := math.Sqrt(float64(s))
		return dist, ok && dist <= d
	case MetricLInf:
		s, ok := withinLInf(a, b, floorLimit(d))
		dist := float64(s)
		return dist, ok && dist <= d
	default:
		panic("space: unknown metric")
	}
}

// DistanceFloats evaluates the metric between float coordinate vectors;
// kriging works in this continuous view of the hypercube.
func (m Metric) DistanceFloats(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("space: distance on vectors of different dimension")
	}
	n := len(a)
	b = b[:n]
	switch m {
	case MetricL1:
		var s0, s1 float64
		i := 0
		for ; i+1 < n; i += 2 {
			s0 += math.Abs(a[i] - b[i])
			s1 += math.Abs(a[i+1] - b[i+1])
		}
		if i < n {
			s0 += math.Abs(a[i] - b[i])
		}
		return s0 + s1
	case MetricL2:
		var s0, s1 float64
		i := 0
		for ; i+1 < n; i += 2 {
			d0 := a[i] - b[i]
			d1 := a[i+1] - b[i+1]
			s0 += d0 * d0
			s1 += d1 * d1
		}
		if i < n {
			d := a[i] - b[i]
			s0 += d * d
		}
		return math.Sqrt(s0 + s1)
	case MetricLInf:
		var m0, m1 float64
		i := 0
		for ; i+1 < n; i += 2 {
			if d := math.Abs(a[i] - b[i]); d > m0 {
				m0 = d
			}
			if d := math.Abs(a[i+1] - b[i+1]); d > m1 {
				m1 = d
			}
		}
		if i < n {
			if d := math.Abs(a[i] - b[i]); d > m0 {
				m0 = d
			}
		}
		if m1 > m0 {
			return m1
		}
		return m0
	default:
		panic("space: unknown metric")
	}
}
