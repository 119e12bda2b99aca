// Package fixed emulates signed two's-complement fixed-point arithmetic
// with per-node word-length control, the approximation substrate of the
// paper's word-length-optimisation benchmarks.
//
// A Format describes a signed Q-format number with IntBits bits before the
// binary point (excluding the sign bit) and FracBits after it; the total
// word-length is 1 + IntBits + FracBits. Quantisation to a format can
// truncate (the hardware-cheap choice, used by the benchmarks) or round to
// nearest; overflow can saturate or wrap. The emulation keeps values as
// float64 holding exact multiples of the quantisation step, which is exact
// for the word-lengths used here (<= 32 bits total, well within float64's
// 53-bit mantissa).
package fixed

import (
	"fmt"
	"math"
)

// QuantMode selects the quantisation (rounding) behaviour at a format
// boundary.
type QuantMode int

// Quantisation modes.
const (
	// Truncate drops the bits below the LSB (round toward -inf),
	// matching the cheap hardware truncation the paper's fixed-point
	// benchmarks use.
	Truncate QuantMode = iota
	// RoundNearest rounds to the nearest representable value, ties away
	// from zero.
	RoundNearest
)

// String returns the mode name.
func (m QuantMode) String() string {
	switch m {
	case Truncate:
		return "truncate"
	case RoundNearest:
		return "round-nearest"
	default:
		return fmt.Sprintf("QuantMode(%d)", int(m))
	}
}

// OverflowMode selects the behaviour when a value exceeds the format's
// range.
type OverflowMode int

// Overflow modes.
const (
	// Saturate clips to the closest representable extreme.
	Saturate OverflowMode = iota
	// Wrap performs two's-complement wrap-around.
	Wrap
)

// String returns the mode name.
func (m OverflowMode) String() string {
	switch m {
	case Saturate:
		return "saturate"
	case Wrap:
		return "wrap"
	default:
		return fmt.Sprintf("OverflowMode(%d)", int(m))
	}
}

// Format is a signed fixed-point format.
type Format struct {
	IntBits  int // bits before the binary point, excluding sign
	FracBits int // bits after the binary point
	Quant    QuantMode
	Overflow OverflowMode
}

// NewFormat builds a format with the given integer and fractional bit
// counts, truncation quantisation and saturating overflow.
func NewFormat(intBits, fracBits int) Format {
	return Format{IntBits: intBits, FracBits: fracBits}
}

// WordLength returns the total number of bits including the sign bit.
func (f Format) WordLength() int { return 1 + f.IntBits + f.FracBits }

// pow2 returns 2^k exactly, as math.Exp2(float64(k)) does, without its
// polynomial evaluation: a normal result is assembled from the exponent
// bits, anything else (subnormal, zero, overflow) comes from math.Ldexp.
func pow2(k int) float64 {
	if k >= -1022 && k <= 1023 {
		return math.Float64frombits(uint64(k+1023) << 52)
	}
	return math.Ldexp(1, k)
}

// Step returns the quantisation step 2^-FracBits.
func (f Format) Step() float64 { return pow2(-f.FracBits) }

// Max returns the largest representable value, 2^IntBits - 2^-FracBits.
func (f Format) Max() float64 { return pow2(f.IntBits) - f.Step() }

// Min returns the smallest (most negative) representable value,
// -2^IntBits.
func (f Format) Min() float64 { return -pow2(f.IntBits) }

// Validate reports whether the format is usable by the emulation.
func (f Format) Validate() error {
	if f.IntBits < 0 || f.FracBits < 0 {
		return fmt.Errorf("fixed: negative bit count in %+v", f)
	}
	if f.WordLength() > 52 {
		return fmt.Errorf("fixed: word-length %d exceeds exact float64 emulation range", f.WordLength())
	}
	return nil
}

// String renders the format as e.g. "Q3.12(truncate,saturate)".
func (f Format) String() string {
	return fmt.Sprintf("Q%d.%d(%s,%s)", f.IntBits, f.FracBits, f.Quant, f.Overflow)
}

// Quantize maps x onto the format's grid, applying the quantisation and
// overflow modes. NaN maps to 0 (a fixed-point datapath has no NaN).
func (f Format) Quantize(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	step := pow2(-f.FracBits)
	var q float64
	switch f.Quant {
	case Truncate:
		q = math.Floor(x/step) * step
	case RoundNearest:
		q = math.Round(x/step) * step
	default:
		panic("fixed: unknown quantisation mode")
	}
	top := pow2(f.IntBits)
	lo, hi := -top, top-step
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
		// Two's-complement wrap over the range [lo, hi+step).
		span := 2 * top // hi+step - lo
		w := math.Mod(q-lo, span)
		if w < 0 {
			w += span
		}
		return lo + w
	default:
		panic("fixed: unknown overflow mode")
	}
}

// QuantizeSlice quantises every element of xs into dst (allocated when
// nil) and returns dst.
func (f Format) QuantizeSlice(dst, xs []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(xs))
	}
	for i, v := range xs {
		dst[i] = f.Quantize(v)
	}
	return dst
}

// QuantizationNoisePowerTruncate returns the analytic noise power of
// truncation to the format under the standard uniform-error model:
// truncation error is uniform on [0, step), so P = step²/3 ... for
// round-to-nearest the error is uniform on [-step/2, step/2) giving
// step²/12. These closed forms anchor the unit tests of the simulated
// datapaths.
func (f Format) QuantizationNoisePower() float64 {
	s := f.Step()
	switch f.Quant {
	case Truncate:
		return s * s / 3
	case RoundNearest:
		return s * s / 12
	default:
		panic("fixed: unknown quantisation mode")
	}
}

// Add quantises the exact sum a+b to the format, modelling an adder whose
// output register has this format.
func (f Format) Add(a, b float64) float64 { return f.Quantize(a + b) }

// Mul quantises the exact product a·b to the format, modelling a
// multiplier whose output register has this format.
func (f Format) Mul(a, b float64) float64 { return f.Quantize(a * b) }

// MAC quantises acc + a·b to the format, modelling a fused
// multiply-accumulate whose output register has this format.
func (f Format) MAC(acc, a, b float64) float64 { return f.Quantize(acc + a*b) }
