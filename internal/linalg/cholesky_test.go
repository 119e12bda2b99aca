package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomSPD builds a random symmetric positive definite matrix A = MᵀM + εI.
func randomSPD(r *rng.Stream, n int) *Matrix {
	m := randomMatrix(r, n)
	mt := m.T()
	spd, err := mt.Mul(m)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+0.1)
	}
	return spd
}

func TestCholeskyKnown(t *testing.T) {
	a, _ := FromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	c, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	want := [][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEqual(l.At(i, j), want[i][j], 1e-10) {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rng.New(5)
	a := randomSPD(r, 6)
	c, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	llt, err := l.Mul(l.T())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if !almostEqual(llt.Data[i], a.Data[i], 1e-8*(1+math.Abs(a.Data[i]))) {
			t.Fatal("L·Lᵀ does not reconstruct A")
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	r := rng.New(6)
	a := randomSPD(r, 5)
	b := []float64{1, -2, 3, -4, 5}
	c, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := a.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !almostEqual(ax[i], b[i], 1e-7) {
			t.Fatalf("residual %v at %d", ax[i]-b[i], i)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a, _ := FromRows([][]float64{
		{1, 2},
		{2, 1}, // eigenvalues 3 and -1
	})
	if _, err := FactorizeCholesky(a); !errors.Is(err, ErrSingular) {
		t.Errorf("indefinite matrix: err = %v, want ErrSingular", err)
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := FactorizeCholesky(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Error("non-square accepted")
	}
}

func TestCholeskySolveWrongRHS(t *testing.T) {
	c, err := FactorizeCholesky(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Error("short rhs accepted")
	}
}

func TestDotNorms(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm2 wrong")
	}
	if NormInf([]float64{-7, 3}) != 7 {
		t.Error("NormInf wrong")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY = %v", y)
	}
}

func TestPropertyCholeskyMatchesLU(t *testing.T) {
	// Both factorisations must solve SPD systems identically.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(6)
		a := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormScaled(0, 3)
		}
		c, err := FactorizeCholesky(a)
		if err != nil {
			return false // SPD construction guarantees success
		}
		x1, err := c.Solve(b)
		if err != nil {
			return false
		}
		x2, err := luSolve(a, b)
		if err != nil {
			return false
		}
		for i := range x1 {
			if !almostEqual(x1[i], x2[i], 1e-6*(1+math.Abs(x2[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
