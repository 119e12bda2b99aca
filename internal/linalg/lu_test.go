package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// luSolve factorises a and solves a·x = b.
func luSolve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

func TestLUSolveKnown(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := luSolve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUSolveResidual(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(10)
		a := randomMatrix(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormScaled(0, 1)
		}
		x, err := luSolve(a, b)
		if err != nil {
			// Random Gaussian matrices are almost never singular, but a
			// singular draw is a legal outcome, not a test failure.
			continue
		}
		ax, err := a.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-7*(1+math.Abs(b[i]))) {
				t.Fatalf("trial %d: residual %v at %d", trial, ax[i]-b[i], i)
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a, _ := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := Factorize(a); !errors.Is(err, ErrSingular) {
		t.Errorf("singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := Factorize(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: err = %v, want ErrShape", err)
	}
}

func TestLUSolveWrongRHS(t *testing.T) {
	f, err := Factorize(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("short rhs: err = %v, want ErrShape", err)
	}
}

func TestDetKnown(t *testing.T) {
	a, _ := FromRows([][]float64{
		{3, 8},
		{4, 6},
	})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); !almostEqual(d, -14, 1e-10) {
		t.Errorf("det = %v, want -14", d)
	}
}

func TestDetIdentity(t *testing.T) {
	f, err := Factorize(Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); !almostEqual(d, 1, 1e-12) {
		t.Errorf("det(I) = %v", d)
	}
}

func TestDetPermutationSign(t *testing.T) {
	// A row swap of the identity has determinant -1; this exercises the
	// pivot sign tracking.
	a, _ := FromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); !almostEqual(d, -1, 1e-12) {
		t.Errorf("det(swap) = %v, want -1", d)
	}
}

func TestMinPivotPositive(t *testing.T) {
	f, err := Factorize(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if f.MinPivot() != 1 {
		t.Errorf("MinPivot(I) = %v", f.MinPivot())
	}
}

func TestPropertySolveResidualSmall(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(8)
		a := randomMatrix(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormScaled(0, 10)
		}
		x, err := luSolve(a, b)
		if err != nil {
			return true // singular draw is acceptable
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		// Residual relative to the conditioning proxy.
		scale := a.MaxAbs()*NormInf(x) + NormInf(b) + 1
		return NormInf(AXPY(-1, b, ax)) <= 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDetProductRule(t *testing.T) {
	// det(A·B) == det(A)·det(B) within tolerance.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(5)
		a := randomMatrix(r, n)
		b := randomMatrix(r, n)
		fa, err1 := Factorize(a)
		fb, err2 := Factorize(b)
		ab, err3 := a.Mul(b)
		if err1 != nil || err2 != nil || err3 != nil {
			return true
		}
		fab, err := Factorize(ab)
		if err != nil {
			return true
		}
		lhs, rhs := fab.Det(), fa.Det()*fb.Det()
		return almostEqual(lhs, rhs, 1e-6*(1+math.Abs(rhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
