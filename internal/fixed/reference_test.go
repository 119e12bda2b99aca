package fixed

import (
	"math"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/rng"
)

// quantizeExp2 is the quantiser as first written, with every power of
// two from math.Exp2. Quantize must agree with it bit for bit.
func quantizeExp2(f Format, x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	step := math.Exp2(-float64(f.FracBits))
	var q float64
	switch f.Quant {
	case Truncate:
		q = math.Floor(x/step) * step
	case RoundNearest:
		q = math.Round(x/step) * step
	default:
		panic("unknown quantisation mode")
	}
	lo, hi := -math.Exp2(float64(f.IntBits)), math.Exp2(float64(f.IntBits))-step
	if q >= lo && q <= hi {
		return q
	}
	switch f.Overflow {
	case Saturate:
		if q < lo {
			return lo
		}
		return hi
	case Wrap:
		span := math.Exp2(float64(f.IntBits + 1))
		w := math.Mod(q-lo, span)
		if w < 0 {
			w += span
		}
		return lo + w
	default:
		panic("unknown overflow mode")
	}
}

// sameBits compares two results bit for bit, so +0 and -0 differ.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func allModes(ib, fb int) []Format {
	var out []Format
	for _, q := range []QuantMode{Truncate, RoundNearest} {
		for _, o := range []OverflowMode{Saturate, Wrap} {
			out = append(out, Format{IntBits: ib, FracBits: fb, Quant: q, Overflow: o})
		}
	}
	return out
}

func TestPow2MatchesExp2(t *testing.T) {
	for k := -1100; k <= 1100; k++ {
		if got, want := pow2(k), math.Exp2(float64(k)); !sameBits(got, want) {
			t.Fatalf("pow2(%d) = %v, math.Exp2 gives %v", k, got, want)
		}
	}
}

func TestQuantizeMatchesExp2Reference(t *testing.T) {
	r := rng.NewNamed(1, "quantize-reference")
	for ib := 0; ib <= 19; ib++ {
		for fb := 0; fb <= 31; fb++ {
			step, top := math.Exp2(-float64(fb)), math.Exp2(float64(ib))
			xs := []float64{
				0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
				math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, 1e-310, -1e-310,
				-top, top - step, top, -top - step, top - step/2, -top - step/2,
				step, -step, step / 2, -step / 2, 3 * step / 2, -3 * step / 2,
				2 * top, -2 * top, 2*top - step, 3*top + step/3, -5*top - step/3,
			}
			for i := 0; i < 64; i++ {
				xs = append(xs, r.NormScaled(0, 2*top))
			}
			for _, f := range allModes(ib, fb) {
				if !sameBits(f.Step(), step) || !sameBits(f.Min(), -top) || !sameBits(f.Max(), top-step) {
					t.Fatalf("%v: Step/Min/Max = %v/%v/%v", f, f.Step(), f.Min(), f.Max())
				}
				for _, x := range xs {
					if got, want := f.Quantize(x), quantizeExp2(f, x); !sameBits(got, want) {
						t.Fatalf("%v.Quantize(%v) = %v, reference %v", f, x, got, want)
					}
				}
			}
		}
	}
}

func TestAllocsQuantize(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation gates are measured without -race (see scripts/check_allocs.sh)")
	}
	f := Format{IntBits: 3, FracBits: 12, Overflow: Wrap}
	x := 9.123
	if n := testing.AllocsPerRun(100, func() { x = f.Quantize(x + 7.5) }); n != 0 {
		t.Errorf("Quantize allocates %v times per call, want 0", n)
	}
}
