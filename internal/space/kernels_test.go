package space

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestUnrolledMetricsMatchSerialReference pins the 4-wide unrolled
// distance kernels against the obvious serial loops across dimensions
// that cover every remainder shape. The integer metrics must match
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

			var l1 int
			for i := range a {
				d := a[i] - b[i]
				if d < 0 {
					d = -d
				}
				l1 += d
			}
			if got := L1(a, b); got != l1 {
				t.Fatalf("n=%d: L1 = %d, want %d", n, got, l1)
			}

			var l2 float64
			for i := range a {
				d := float64(a[i] - b[i])
				l2 += d * d
			}
			l2 = math.Sqrt(l2)
			if got := L2(a, b); math.Abs(got-l2) > 1e-12*(1+l2) {
				t.Fatalf("n=%d: L2 = %v, want %v", n, got, l2)
			}

			linf := 0
			for i := range a {
				d := a[i] - b[i]
				if d < 0 {
					d = -d
				}
				if d > linf {
					linf = d
				}
			}
			if got := LInf(a, b); got != linf {
				t.Fatalf("n=%d: LInf = %d, want %d", n, got, linf)
			}

			for _, m := range []Metric{MetricL1, MetricL2, MetricLInf} {
				// Widened integer form agrees with the int kernels.
				got := m.Distance(a, b)
				switch m {
				case MetricL1:
					if got != float64(l1) {
						t.Fatalf("n=%d: Distance L1 = %v, want %d", n, got, l1)
					}
				case MetricL2:
					if got != L2(a, b) {
						t.Fatalf("n=%d: Distance L2 = %v, want %v", n, got, L2(a, b))
					}
				case MetricLInf:
					if got != float64(linf) {
						t.Fatalf("n=%d: Distance LInf = %v, want %d", n, got, linf)
					}
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
