package kriging

import (
	"math"
	"testing"
)

func TestWeightedL1(t *testing.T) {
	d := WeightedL1([]float64{2, 0.5})
	got := d([]float64{0, 0}, []float64{1, 4})
	if got != 2*1+0.5*4 {
		t.Errorf("weighted distance = %v", got)
	}
}

func TestWeightedL1CopiesScales(t *testing.T) {
	scales := []float64{1, 1}
	d := WeightedL1(scales)
	scales[0] = 100
	if got := d([]float64{0, 0}, []float64{1, 0}); got != 1 {
		t.Errorf("WeightedL1 aliased the caller's scales: %v", got)
	}
}

func TestAnisotropicKrigingImprovesOnAnisotropicField(t *testing.T) {
	// Field y = 8·x0 + x1 on a sparse lattice; query interpolates better
	// when the distance respects the anisotropy.
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 3; i++ {
		for j := 0; j <= 3; j++ {
			if (i+j)%2 == 0 {
				xs = append(xs, []float64{float64(i), float64(j)})
				ys = append(ys, 8*float64(i)+float64(j))
			}
		}
	}
	iso := &Ordinary{}
	aniso := &Ordinary{Dist: WeightedL1([]float64{8, 1})}
	q := []float64{1, 2}
	truth := 8*1.0 + 2.0
	isoGot, err := iso.Predict(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	anisoGot, err := aniso.Predict(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(anisoGot-truth) > math.Abs(isoGot-truth)+1e-9 {
		t.Errorf("anisotropic (%v) worse than isotropic (%v), truth %v", anisoGot, isoGot, truth)
	}
}
