package variogram

import (
	"fmt"
	"math"
)

// DirectionalBin is one axis of a directional semivariogram study: the
// empirical bins computed over sample pairs separated along that axis
// only.
type DirectionalBin struct {
	Axis int
	Bins []Bin
}

// Directional computes per-axis empirical semivariograms: for each
// dimension d, Eq. 4 is evaluated over the pairs that differ in dimension
// d alone. Comparing the per-axis slopes reveals geometric anisotropy —
// in a word-length problem, which variables the metric is actually
// sensitive to.
func Directional(xs [][]float64, ys []float64, nv int) ([]DirectionalBin, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("variogram: %d coordinates but %d values", len(xs), len(ys))
	}
	if nv <= 0 {
		return nil, fmt.Errorf("variogram: non-positive dimension count %d", nv)
	}
	perAxis := make([][]Pair, nv)
	for i := 0; i < len(xs); i++ {
		if len(xs[i]) != nv {
			return nil, fmt.Errorf("variogram: sample %d has %d dimensions, want %d", i, len(xs[i]), nv)
		}
		for j := i + 1; j < len(xs); j++ {
			axis := -1
			aligned := true
			for d := 0; d < nv; d++ {
				if xs[i][d] != xs[j][d] {
					if axis != -1 {
						aligned = false
						break
					}
					axis = d
				}
			}
			if !aligned || axis == -1 {
				continue
			}
			dv := ys[i] - ys[j]
			perAxis[axis] = append(perAxis[axis], Pair{
				Dist: math.Abs(xs[i][axis] - xs[j][axis]),
				Sq:   dv * dv,
			})
		}
	}
	out := make([]DirectionalBin, nv)
	for d := 0; d < nv; d++ {
		out[d] = DirectionalBin{Axis: d, Bins: EmpiricalExact(perAxis[d])}
	}
	return out, nil
}
