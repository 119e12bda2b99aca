package kriging

import (
	"errors"
	"math"
	"testing"
)

func TestUniversalExactOnLinearFieldIncludingExtrapolation(t *testing.T) {
	// The defining property: a linear field is reproduced exactly even
	// beyond the support hull, where ordinary kriging flattens.
	xs := [][]float64{{0}, {1}, {2}, {3}}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	u := &Universal{}
	for _, q := range []float64{1.5, 4, 6, -2} {
		got, err := u.Predict(xs, ys, []float64{q})
		if err != nil {
			t.Fatalf("q=%v: %v", q, err)
		}
		want := 2*q + 1
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("q=%v: got %v, want %v", q, got, want)
		}
	}
}

func TestUniversalBeatsOrdinaryOnTrendExtrapolation(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}}
	ys := []float64{0, 6, 12}
	q := []float64{4}
	want := 24.0
	uGot, err := (&Universal{}).Predict(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	oGot, err := (&Ordinary{}).Predict(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(uGot-want) >= math.Abs(oGot-want) {
		t.Errorf("universal (%v) not closer to %v than ordinary (%v)", uGot, want, oGot)
	}
}

func TestUniversal2DLinearField(t *testing.T) {
	xs, ys := grid2D(3, func(x, y float64) float64 { return 5 + 2*x - 3*y })
	u := &Universal{}
	for _, q := range [][]float64{{0.5, 1.5}, {3, 3}, {-1, 0}} {
		got, err := u.Predict(xs, ys, q)
		if err != nil {
			t.Fatal(err)
		}
		want := 5 + 2*q[0] - 3*q[1]
		if math.Abs(got-want) > 1e-5 {
			t.Errorf("q=%v: got %v, want %v", q, got, want)
		}
	}
}

func TestUniversalExactAtSupports(t *testing.T) {
	xs, ys := grid2D(3, func(x, y float64) float64 { return x*x + 3*y })
	u := &Universal{}
	for i := range xs {
		got, err := u.Predict(xs, ys, xs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-ys[i]) > 1e-5*(1+math.Abs(ys[i])) {
			t.Errorf("support %v: got %v, want %v", xs[i], got, ys[i])
		}
	}
}

func TestUniversalCollinearSupportsFallBack(t *testing.T) {
	// Supports on a line, queried off the line: the x1 drift coefficient
	// is unidentifiable; driftDims drops it and the prediction must
	// still be finite.
	xs := [][]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	ys := []float64{0, 1, 2, 3}
	got, err := (&Universal{}).Predict(xs, ys, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("non-finite prediction %v", got)
	}
}

func TestUniversalSmallSupports(t *testing.T) {
	u := &Universal{}
	if _, err := u.Predict(nil, nil, []float64{0}); !errors.Is(err, ErrNoSupport) {
		t.Error("empty support accepted")
	}
	got, err := u.Predict([][]float64{{2}}, []float64{9}, []float64{5})
	if err != nil || got != 9 {
		t.Errorf("single support: %v, %v", got, err)
	}
	// Two supports: drift limited to zero linear terms (n-2 = 0), so it
	// behaves like ordinary kriging and must not blow up.
	got, err = u.Predict([][]float64{{0}, {2}}, []float64{0, 4}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-6 {
		t.Errorf("midpoint of two supports = %v", got)
	}
}

func TestUniversalMismatchedInput(t *testing.T) {
	u := &Universal{}
	if _, err := u.Predict([][]float64{{0}, {1}}, []float64{1}, []float64{0}); err == nil {
		t.Error("mismatched input accepted")
	}
}

func TestUniversalName(t *testing.T) {
	if (&Universal{}).Name() != "universal-kriging" {
		t.Error("name wrong")
	}
}

func TestCappedWrapper(t *testing.T) {
	xs := make([][]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		xs[i] = []float64{float64(i)}
		ys[i] = 2 * float64(i)
	}
	c := &Capped{Inner: &Ordinary{}, K: 4}
	got, err := c.Predict(xs, ys, []float64{5.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-11) > 0.5 {
		t.Errorf("capped prediction = %v, want ~11", got)
	}
	if c.Name() != "ordinary-kriging-capped" {
		t.Errorf("name = %s", c.Name())
	}
	// K <= 0 or n <= K delegates directly.
	cAll := &Capped{Inner: &Ordinary{}, K: 0}
	if _, err := cAll.Predict(xs[:3], ys[:3], []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Capped{Inner: &Ordinary{}, K: 4}).Predict(nil, nil, []float64{0}); !errors.Is(err, ErrNoSupport) {
		t.Error("capped accepted empty support")
	}
}

func TestDriftDims(t *testing.T) {
	xs := [][]float64{{0, 5, 1}, {1, 5, 1}, {2, 5, 2}}
	dims := driftDims(xs, 10)
	if len(dims) != 2 || dims[0] != 0 || dims[1] != 2 {
		t.Errorf("driftDims = %v", dims)
	}
	if driftDims(xs, 1)[0] != 0 {
		t.Error("maxTerms cap not applied")
	}
	if got := driftDims(xs, 0); got != nil {
		t.Errorf("driftDims with no term budget = %v, want none (a 2-point support gets no drift)", got)
	}
	if driftDims(nil, 3) != nil {
		t.Error("empty input should give nil")
	}
}
