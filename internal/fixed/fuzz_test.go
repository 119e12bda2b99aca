package fixed

import (
	"math"
	"testing"
)

// FuzzQuantize checks the quantiser's invariants over arbitrary inputs
// and formats: results stay on the grid, inside the range, the operation
// is idempotent, and it agrees bit for bit with the math.Exp2 reference.
func FuzzQuantize(f *testing.F) {
	f.Add(0.5, uint8(3), uint8(12), false, false)
	f.Add(-1e9, uint8(0), uint8(0), true, true)
	f.Add(math.Pi, uint8(7), uint8(20), true, false)
	f.Fuzz(func(t *testing.T, x float64, ib, fb uint8, roundNearest, wrap bool) {
		fmt := NewFormat(int(ib%8), int(fb%20))
		if roundNearest {
			fmt.Quant = RoundNearest
		}
		if wrap {
			fmt.Overflow = Wrap
		}
		q := fmt.Quantize(x)
		if ref := quantizeExp2(fmt, x); !sameBits(q, ref) {
			t.Fatalf("%v.Quantize(%v) = %v, reference %v", fmt, x, q, ref)
		}
		if math.IsNaN(q) || math.IsInf(q, 0) {
			t.Fatalf("non-finite quantisation of %v: %v", x, q)
		}
		if q < fmt.Min() || q > fmt.Max() {
			t.Fatalf("quantised %v to %v outside [%v, %v]", x, q, fmt.Min(), fmt.Max())
		}
		// On-grid: q / step must be integral.
		steps := q / fmt.Step()
		if math.Abs(steps-math.Round(steps)) > 1e-6 {
			t.Fatalf("quantised value %v not on the grid (step %v)", q, fmt.Step())
		}
		if fmt.Quantize(q) != q {
			t.Fatalf("quantisation not idempotent at %v", x)
		}
	})
}
