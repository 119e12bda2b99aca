package linalg

import (
	"fmt"
	"math"
)

// LU holds an LU factorisation with partial pivoting: P·A = L·U where L is
// unit lower triangular and U is upper triangular, both packed into lu.
type LU struct {
	lu   *Matrix
	piv  []int // row permutation: piv[i] is the original row in position i
	sign float64
	n    int
}

// Factorize computes the LU decomposition of the square matrix a using
// Doolittle's method with partial (row) pivoting. The input is not
// modified. It returns ErrSingular when a pivot is exactly zero; callers
// that want to detect near-singularity should inspect MinPivot.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > mx {
				mx, p = v, i
			}
		}
		if mx == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			// Swap full rows p and k.
			rp := lu.Data[p*n : (p+1)*n]
			rk := lu.Data[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				rp[j], rk[j] = rk[j], rp[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			ri := lu.Data[i*n : (i+1)*n]
			rk := lu.Data[k*n : (k+1)*n]
			axpyUnrolled(-f, rk[k+1:n], ri[k+1:n])
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign, n: n}, nil
}

// Solve solves A·x = b for x given the factorisation. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into dst, allocation-free. dst must not alias
// b: the row permutation scatters b into dst before the substitution
// sweeps.
func (f *LU) SolveInto(dst, b []float64) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("%w: rhs length %d, dst length %d, want %d", ErrShape, len(b), len(dst), f.n)
	}
	n := f.n
	x := dst
	// Apply permutation: x = P·b.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		x[i] -= dotUnrolled(row[:i], x)
	}
	// Backward substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := dotUnrolled(row[i+1:n], x[i+1:n])
		x[i] = (x[i] - s) / row[i]
	}
	return nil
}

// Size returns the dimension of the factored matrix.
func (f *LU) Size() int { return f.n }

// luExtendTol is the health threshold of Extend: the new diagonal pivot
// (the Schur complement of the border, which gets no row exchange) must
// not be negligible against the existing pivot scale, or later solves
// would amplify rounding error unboundedly. Callers fall back to a full
// (re-pivoted) factorisation on rejection.
const luExtendTol = 1e-10

// Extend grows the factorisation of the n×n matrix A to the bordered
// (n+1)×(n+1) matrix
//
//	A' = ⎡A    col⎤
//	     ⎣rowᵀ corner⎦
//
// in O(n²): two triangular solves for the new column of U and row of L
// plus the Schur-complement corner pivot. The existing pivot order is
// frozen and the new row stays last, so no re-pivoting occurs — Extend
// returns ErrSingular when the unpivoted corner fails the health check,
// and the caller should refactorise from scratch. The receiver is not
// modified; the returned factor shares no state with it.
func (f *LU) Extend(col, row []float64, corner float64) (*LU, error) {
	if len(col) != f.n || len(row) != f.n {
		return nil, fmt.Errorf("%w: border lengths %d/%d, want %d", ErrShape, len(col), len(row), f.n)
	}
	n := f.n
	m := n + 1
	lu := NewMatrix(m, m)
	for i := 0; i < n; i++ {
		copy(lu.Data[i*m:i*m+n], f.lu.Data[i*n:(i+1)*n])
	}
	// New last column of U: L·u = P·col (forward substitution with the
	// unit lower triangle).
	for i := 0; i < n; i++ {
		ri := f.lu.Data[i*n : (i+1)*n]
		s := col[f.piv[i]]
		for k := 0; k < i; k++ {
			s -= ri[k] * lu.Data[k*m+n]
		}
		lu.Data[i*m+n] = s
	}
	// New last row of L: lᵀ·U = rowᵀ (forward substitution through Uᵀ).
	last := lu.Data[n*m : m*m]
	for j := 0; j < n; j++ {
		s := row[j]
		for k := 0; k < j; k++ {
			s -= last[k] * f.lu.Data[k*n+j]
		}
		last[j] = s / f.lu.Data[j*n+j]
	}
	// Corner pivot: the Schur complement corner - lᵀ·u.
	s := corner
	var scale float64
	for k := 0; k < n; k++ {
		s -= last[k] * lu.Data[k*m+n]
		if d := math.Abs(f.lu.Data[k*n+k]); d > scale {
			scale = d
		}
	}
	// Written so a NaN corner (non-finite border input) fails the check
	// and rejects the extension instead of poisoning the factor.
	if !(math.Abs(s) >= luExtendTol*(scale+1)) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("%w: extended corner pivot %g below health threshold", ErrSingular, s)
	}
	last[n] = s
	piv := make([]int, m)
	copy(piv, f.piv)
	piv[n] = n
	return &LU{lu: lu, piv: piv, sign: f.sign, n: m}, nil
}

// Det returns the determinant of the factorised matrix.
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// MinPivot returns the smallest absolute diagonal entry of U, a cheap
// proxy for how close to singular the system is.
func (f *LU) MinPivot() float64 {
	mn := math.Inf(1)
	for i := 0; i < f.n; i++ {
		if v := math.Abs(f.lu.At(i, i)); v < mn {
			mn = v
		}
	}
	return mn
}
