package kriging

import "math"

// WeightedL1 returns a Distance computing Σ scale_d·|a_d - b_d|. With
// per-axis scales proportional to the field's sensitivity along each
// axis, the variogram sees an (approximately) isotropic field — the
// classical geostatistical treatment of anisotropy. Word-length
// configurations are a natural fit: a bit of the accumulator register
// rarely matters as much as a bit of the dominant multiplier.
func WeightedL1(scales []float64) Distance {
	s := append([]float64(nil), scales...)
	return func(a, b []float64) float64 {
		var d float64
		for i, v := range a {
			d += s[i] * math.Abs(v-b[i])
		}
		return d
	}
}
