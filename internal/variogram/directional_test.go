package variogram

import (
	"math"
	"testing"
)

func TestDirectionalSeparatesAxes(t *testing.T) {
	// Field y = 10·x0 + x1: the axis-0 semivariogram must be ~100x the
	// axis-1 one at unit distance.
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			xs = append(xs, []float64{float64(i), float64(j)})
			ys = append(ys, 10*float64(i)+float64(j))
		}
	}
	dirs, err := Directional(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Fatalf("axes = %d", len(dirs))
	}
	g0 := dirs[0].Bins[0].Gamma // axis 0, distance 1: (10)²/2 = 50
	g1 := dirs[1].Bins[0].Gamma // axis 1, distance 1: 1/2
	if math.Abs(g0-50) > 1e-9 || math.Abs(g1-0.5) > 1e-9 {
		t.Errorf("γ0(1) = %v (want 50), γ1(1) = %v (want 0.5)", g0, g1)
	}
}

func TestDirectionalIsotropicField(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 3; i++ {
		for j := 0; j <= 3; j++ {
			xs = append(xs, []float64{float64(i), float64(j)})
			ys = append(ys, float64(i)+float64(j))
		}
	}
	dirs, err := Directional(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	// y = x0 + x1: both axes see the same semivariogram, bin for bin.
	b0, b1 := dirs[0].Bins, dirs[1].Bins
	if len(b0) == 0 || len(b0) != len(b1) {
		t.Fatalf("axis bins %d vs %d", len(b0), len(b1))
	}
	for i := range b0 {
		if math.Abs(b0[i].Dist-b1[i].Dist) > 1e-9 || math.Abs(b0[i].Gamma-b1[i].Gamma) > 1e-9 {
			t.Errorf("bin %d: axis 0 %+v vs axis 1 %+v", i, b0[i], b1[i])
		}
	}
}

func TestDirectionalValidation(t *testing.T) {
	if _, err := Directional([][]float64{{1}}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Directional(nil, nil, 0); err == nil {
		t.Error("zero dimensions accepted")
	}
	if _, err := Directional([][]float64{{1, 2}}, []float64{1}, 3); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestDirectionalSkipsDiagonalPairs(t *testing.T) {
	xs := [][]float64{{0, 0}, {1, 1}}
	ys := []float64{0, 5}
	dirs, err := Directional(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if len(d.Bins) != 0 {
			t.Errorf("axis %d collected diagonal pairs", d.Axis)
		}
	}
}
