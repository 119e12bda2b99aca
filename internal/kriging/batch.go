package kriging

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/variogram"
)

// Blocked prediction is the only way a kriging answer is computed: K
// queries against ONE shared support solve as a single column-major
// multi-RHS block through the (cached) factor — linalg SolveBatchInto,
// BLAS-3 shape — and a single Predict/PredictVar is the K = 1 call of
// the same body. The per-query costs a loop of single predictions pays
// K times — fingerprint + cache lookup, scratch pool round-trip — are
// paid once per batch, and the triangular sweeps share each factor-row
// load across four columns.
//
// Each column of a K-query batch is bit-identical to the K = 1 call on
// that query. Three ingredients make that hold (and the property wall in
// batch_test.go enforces it):
//
//   - the blocked linalg kernels replicate the single-RHS accumulation
//     order per column exactly, and a leftover column (K = 1 included)
//     falls through to the single-RHS solve;
//   - variogram.GammaInto performs the same per-element arithmetic as
//     Model.Gamma, merely devirtualised;
//   - the 4-wide output sweep goes through linalg.Dot4, bit-identical
//     per column to the linalg.Dot that leftover columns use.
//
// All block scratch comes from the predict pool: a warm prediction
// (cached factor) performs zero heap allocations regardless of K.

// batchDims validates a batch call's shapes; outs are the caller-owned
// output slices (all must have one element per query).
func batchDims(xs [][]float64, ys []float64, queries [][]float64, outs ...[]float64) (n, k int, err error) {
	n, k = len(xs), len(queries)
	if n == 0 && k > 0 {
		return 0, 0, ErrNoSupport
	}
	if len(ys) != n {
		return 0, 0, fmt.Errorf("kriging: %d coordinates but %d values", n, len(ys))
	}
	for _, out := range outs {
		if len(out) != k {
			return 0, 0, fmt.Errorf("kriging: %d queries but %d outputs", k, len(out))
		}
	}
	return n, k, nil
}

// fillRHS writes the right-hand sides of all queries into rhs,
// column-major with m rows per query: γ(dist(q, xs[i])) for the n
// supports (Eq. 8), then — when m > n — the unbiasedness row 1 followed
// by the drift coordinates q[dims[i]]. A nil dist is the default L1
// metric, called directly so it inlines instead of dispatching through a
// function value (the arithmetic is identical).
func fillRHS(rhs []float64, m int, model variogram.Model, dist Distance, xs, queries [][]float64, dims []int) {
	n := len(xs)
	for j, q := range queries {
		col := rhs[j*m : (j+1)*m]
		if dist == nil {
			for i, x := range xs {
				col[i] = L1Distance(q, x)
			}
		} else {
			for i, x := range xs {
				col[i] = dist(q, x)
			}
		}
		variogram.GammaInto(model, col[:n], col[:n])
		if m > n {
			col[n] = 1
			for i, d := range dims {
				col[n+1+i] = q[d]
			}
		}
	}
}

// weightedValues writes out[j] = Σ_i w_j[i]·ys[i] for each solved
// column of w (m rows per column, the first len(ys) being the support
// weights), four columns at a time. A non-finite value is ErrDegenerate.
func weightedValues(out, w []float64, m int, ys []float64) error {
	n, k := len(ys), len(out)
	j := 0
	for ; j+3 < k; j += 4 {
		out[j], out[j+1], out[j+2], out[j+3] = linalg.Dot4(ys,
			w[j*m:j*m+n], w[(j+1)*m:(j+1)*m+n], w[(j+2)*m:(j+2)*m+n], w[(j+3)*m:(j+3)*m+n])
	}
	for ; j < k; j++ {
		out[j] = linalg.Dot(w[j*m:j*m+n], ys)
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrDegenerate
		}
	}
	return nil
}

// PredictBatch predicts all queries against one shared support, writing
// out[j] for queries[j]. See the package comment above for the blocked
// execution shape; Predict is its K = 1 call.
func (o *Ordinary) PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error {
	if _, _, err := batchDims(xs, ys, queries, out); err != nil {
		return err
	}
	return o.predict(xs, ys, queries, out, nil)
}

// PredictVarBatch is PredictBatch returning the ordinary-kriging
// variance estimate alongside each value; PredictVar is its K = 1 call.
func (o *Ordinary) PredictVarBatch(xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error {
	if _, _, err := batchDims(xs, ys, queries, outVal, outVar); err != nil {
		return err
	}
	return o.predict(xs, ys, queries, outVal, outVar)
}

// predict answers validated queries: values into outVal and, when outVar
// is non-nil, the variance Σ μ_k·γ_ik + m into outVar.
func (o *Ordinary) predict(xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error {
	n := len(xs)
	if len(queries) == 0 {
		return nil
	}
	if n == 1 {
		// A single support point: the unbiasedness constraint forces
		// μ_0 = 1, so the prediction is that value.
		for j := range outVal {
			outVal[j] = ys[0]
		}
		clear(outVar)
		return nil
	}
	s := predictPool.Get().(*predictScratch)
	defer predictPool.Put(s)
	w, rhs, err := o.solve(xs, ys, queries, s)
	if err != nil {
		return err
	}
	m := n + 1
	if err := weightedValues(outVal, w, m, ys); err != nil {
		return err
	}
	for j := range outVar {
		wc, rc := w[j*m:(j+1)*m], rhs[j*m:(j+1)*m]
		varEst := linalg.Dot(wc[:n], rc[:n])
		varEst += wc[n] // + Lagrange multiplier
		if varEst < 0 {
			varEst = 0
		}
		outVar[j] = varEst
	}
	return nil
}

// solve is ordinary kriging's one right-hand-side build and solve: the
// factored Eq. 9 system of the support, the RHS (γ_i of Eq. 8 augmented
// with the constraint 1) of every query, and the weights and Lagrange
// multiplier Γ⁻¹·(γ_i, 1) of each, all column-major in s's buffers.
func (o *Ordinary) solve(xs [][]float64, ys []float64, queries [][]float64, s *predictScratch) (w, rhs []float64, err error) {
	sys, err := o.system(xs, ys)
	if err != nil {
		return nil, nil, err
	}
	m, k := len(xs)+1, len(queries)
	rhs = growFloats(&s.rhs, m*k)
	fillRHS(rhs, m, sys.model, o.Dist, xs, queries, nil)
	w = growFloats(&s.w, m*k)
	if err := sys.solveBatchInto(w, rhs, m, k, s); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	return w, rhs, nil
}

// centeredDot returns mean + Σ w[i]·(ys[i]-mean) with the same paired
// accumulation as the linalg kernels: simple kriging's output per query.
func centeredDot(mean float64, w, ys []float64) float64 {
	n := len(w)
	if n > len(ys) {
		n = len(ys)
	}
	var s0, s1 float64
	i := 0
	for ; i+1 < n; i += 2 {
		s0 += w[i] * (ys[i] - mean)
		s1 += w[i+1] * (ys[i+1] - mean)
	}
	if i < n {
		s0 += w[i] * (ys[i] - mean)
	}
	return mean + (s0 + s1)
}

// PredictBatch predicts all queries against one shared support through
// the cached covariance factor in one blocked solve; Predict is its
// K = 1 call.
func (s *Simple) PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error {
	n, k, err := batchDims(xs, ys, queries, out)
	if err != nil {
		return err
	}
	if k == 0 {
		return nil
	}
	mean := s.Mean
	if !s.KnownMean {
		var sum float64
		for _, y := range ys {
			sum += y
		}
		mean = sum / float64(n)
	}
	if n == 1 {
		for j := range out {
			out[j] = ys[0]
		}
		return nil
	}
	sys, err := s.system(xs, ys)
	if err != nil {
		return err
	}
	if sys.sill == 0 {
		// Flat field: every support value equals the mean.
		for j := range out {
			out[j] = mean
		}
		return nil
	}
	sc := predictPool.Get().(*predictScratch)
	defer predictPool.Put(sc)
	rhs := growFloats(&sc.rhs, n*k)
	fillRHS(rhs, n, sys.model, s.Dist, xs, queries, nil)
	for i, g := range rhs {
		// Clamp: a query farther out than every support separation would
		// otherwise produce a negative covariance under the truncated
		// sill.
		cv := sys.sill - g
		if cv < 0 {
			cv = 0
		}
		rhs[i] = cv
	}
	w := growFloats(&sc.w, n*k)
	if err := sys.solveBatchInto(w, rhs, n, k, sc); err != nil {
		return fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	for j := 0; j < k; j++ {
		val := centeredDot(mean, w[j*n:(j+1)*n], ys)
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return ErrDegenerate
		}
		out[j] = val
	}
	return nil
}

// PredictBatch predicts all queries against one shared support. The
// drift system depends on the support alone, so it is assembled and
// factorised once per call and all K right-hand sides solve in one
// blocked call; Predict is the K = 1 call. A degenerate drift system
// (e.g. supports on a line queried diagonally) falls back to ordinary
// kriging with the same variogram rather than failing the evaluation.
func (u *Universal) PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error {
	n, k, err := batchDims(xs, ys, queries, out)
	if err != nil {
		return err
	}
	if k == 0 {
		return nil
	}
	if n == 1 {
		for j := range out {
			out[j] = ys[0]
		}
		return nil
	}
	model, dims, f, err := u.system(xs, ys)
	if err != nil {
		return err
	}
	if f == nil {
		ord := &Ordinary{Dist: u.Dist, Model: model, Nugget: u.Nugget, CacheSize: -1}
		return ord.PredictBatch(xs, ys, queries, out)
	}
	size := f.Size()
	sc := predictPool.Get().(*predictScratch)
	defer predictPool.Put(sc)
	rhs := growFloats(&sc.rhs, size*k)
	fillRHS(rhs, size, model, u.Dist, xs, queries, dims)
	w := growFloats(&sc.w, size*k)
	if err := f.SolveBatchInto(w, rhs, k); err != nil {
		return fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	return weightedValues(out, w, size, ys)
}
