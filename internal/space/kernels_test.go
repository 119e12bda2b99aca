package space

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// serialL1 is the obvious serial L1 loop, the reference the bounded
// kernel is checked against.
func serialL1(a, b Config) int {
	var s int
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// serialDistance is the serial reference of each metric, widened to
// float64 the way the bounded kernel reports it.
func serialDistance(m Metric, a, b Config) float64 {
	switch m {
	case MetricL1:
		return float64(serialL1(a, b))
	case MetricL2:
		var s float64
		for i := range a {
			d := float64(a[i] - b[i])
			s += d * d
		}
		return math.Sqrt(s)
	case MetricLInf:
		m := 0
		for i := range a {
			d := a[i] - b[i]
			if d < 0 {
				d = -d
			}
			if d > m {
				m = d
			}
		}
		return float64(m)
	default:
		panic("unknown metric")
	}
}

// fullDistance is the bounded kernel with nothing to stop it: the whole
// distance.
func fullDistance(m Metric, a, b Config) float64 {
	dist, ok := m.Within(a, b, math.Inf(1))
	if !ok {
		panic("an infinite radius admits every pair")
	}
	return dist
}

// TestUnrolledMetricsMatchSerialReference pins the 4-wide unrolled
// distance kernels against the obvious serial loops across dimensions
// that cover every remainder shape. The integer kernels must match
// exactly (integer sums are order-independent); the float metrics must
// match to reassociation tolerance and be deterministic across repeated
// calls.
func TestUnrolledMetricsMatchSerialReference(t *testing.T) {
	r := rng.New(29)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
		for trial := 0; trial < 50; trial++ {
			a := make(Config, n)
			b := make(Config, n)
			af := make([]float64, n)
			bf := make([]float64, n)
			for i := 0; i < n; i++ {
				a[i] = r.Intn(64) - 32
				b[i] = r.Intn(64) - 32
				af[i] = r.NormScaled(0, 10)
				bf[i] = r.NormScaled(0, 10)
			}

			for _, m := range []Metric{MetricL1, MetricL2, MetricLInf} {
				if got, want := fullDistance(m, a, b), serialDistance(m, a, b); got != want {
					t.Fatalf("n=%d %v: Within = %v, want %v", n, m, got, want)
				}

				// Float form: serial reference within tolerance, bitwise
				// deterministic across calls.
				var ref float64
				switch m {
				case MetricL1:
					for i := range af {
						ref += math.Abs(af[i] - bf[i])
					}
				case MetricL2:
					var s float64
					for i := range af {
						d := af[i] - bf[i]
						s += d * d
					}
					ref = math.Sqrt(s)
				case MetricLInf:
					for i := range af {
						if d := math.Abs(af[i] - bf[i]); d > ref {
							ref = d
						}
					}
				}
				gf := m.DistanceFloats(af, bf)
				if math.Abs(gf-ref) > 1e-12*(1+ref) {
					t.Fatalf("n=%d %v: DistanceFloats = %v, want %v", n, m, gf, ref)
				}
				if again := m.DistanceFloats(af, bf); again != gf {
					t.Fatalf("n=%d %v: DistanceFloats not deterministic", n, m)
				}
				// Metric axioms: non-negative, zero on the diagonal,
				// symmetric.
				if gf < 0 || m.DistanceFloats(af, af) != 0 {
					t.Fatalf("n=%d %v: axiom violation", n, m)
				}
				if m.DistanceFloats(bf, af) != gf {
					t.Fatalf("n=%d %v: not symmetric", n, m)
				}
			}
		}
	}
}

// withinRadii covers every branch of the bounded kernel's radius
// handling: nothing admitted (NaN, negative), the integer and fractional
// radii of the paper's sweep, exact L2 boundaries (sqrt 5 and the float
// just below it), radii too large to stop on, and +Inf.
var withinRadii = []float64{
	-1, math.Copysign(0, -1), 0, 0.5, 1, 2, 2.5, 3, 4, 5,
	math.Sqrt(5), math.Nextafter(math.Sqrt(5), 0), 1e9, 1 << 53,
	math.Inf(1), math.NaN(),
}

// TestWithinMatchesSerialReference checks the bounded kernel against the
// serial references for every metric, for Nv covering every tail length
// of the four-wide unrolling, over the radii above. A pair is admitted
// exactly when the serial distance is <= d, an admitted pair carries the
// serial distance bit for bit, and a rejected one a lower bound of it.
func TestWithinMatchesSerialReference(t *testing.T) {
	r := rng.New(31)
	for _, nv := range []int{1, 2, 3, 4, 5, 23} {
		for trial := 0; trial < 300; trial++ {
			// Half the pairs are a few unit steps apart, so the paper's
			// radii see hits as well as early stops; the rest are drawn
			// independently over the hevc coordinate range 7-14.
			a := make(Config, nv)
			for i := range a {
				a[i] = r.IntRange(7, 14)
			}
			b := a.Clone()
			if trial%2 == 0 {
				for s := r.Intn(7); s > 0; s-- {
					b[r.Intn(nv)] += r.IntRange(-1, 1)
				}
			} else {
				for i := range b {
					b[i] = r.IntRange(7, 14)
				}
			}
			for _, m := range []Metric{MetricL1, MetricL2, MetricLInf} {
				ref := serialDistance(m, a, b)
				for _, d := range withinRadii {
					dist, ok := m.Within(a, b, d)
					if want := ref <= d; ok != want {
						t.Fatalf("nv=%d %v d=%v a=%v b=%v: ok = %v, want %v (distance %v)", nv, m, d, a, b, ok, want, ref)
					}
					switch {
					case ok && math.Float64bits(dist) != math.Float64bits(ref):
						t.Fatalf("nv=%d %v d=%v: distance %v, want %v", nv, m, d, dist, ref)
					case !ok && dist > ref:
						t.Fatalf("nv=%d %v d=%v: rejected with %v above the distance %v", nv, m, d, dist, ref)
					}
				}
			}
		}
	}
}

// TestWithinLimits pins the integer limits the kernel stops at: the
// largest integer (sum of squares, for L2) that still passes dist <= d.
// The radii sit on and one ulp either side of every integer and every
// square root of an integer up to 10^5, where d*d rounds across the
// bound in both directions.
func TestWithinLimits(t *testing.T) {
	for k := 0; k <= 100000; k++ {
		for _, r := range []float64{float64(k), math.Sqrt(float64(k))} {
			for _, d := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
				if l := floorLimit(d); !(float64(l) <= d && float64(l+1) > d) {
					t.Fatalf("floorLimit(%v) = %d", d, l)
				}
				if l := squareLimit(d); !(math.Sqrt(float64(l)) <= d && math.Sqrt(float64(l+1)) > d) {
					t.Fatalf("squareLimit(%v) = %d", d, l)
				}
			}
		}
	}
	for _, d := range []float64{1 << 53, 1e300, math.Inf(1)} {
		if floorLimit(d) != noStop {
			t.Errorf("floorLimit(%v) stops early", d)
		}
		if squareLimit(d) != noStop {
			t.Errorf("squareLimit(%v) stops early", d)
		}
	}
}
