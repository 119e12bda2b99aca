package kriging

import (
	"errors"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/variogram"
)

// batchModels returns the three fixed variogram families the property
// wall crosses with every interpolator. Fresh instances per call so
// cached systems never leak across interpolator configurations.
func batchModels() []variogram.Model {
	return []variogram.Model{
		&variogram.LinearModel{Slope: 1.3, Nugget: 0.05},
		&variogram.SphericalModel{Sill: 40, Range: 9, Nugget: 0.1},
		&variogram.ExponentialModel{Sill: 25, Range: 6, Nugget: 0.1},
	}
}

// bitEqual treats two floats as equal when their bit patterns match
// (NaN == NaN for this purpose, which float comparison would miss).
func bitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// denseReference solves one query the textbook way, independent of the
// cached, blocked and incrementally grown factors: assemble the full
// dense system of the variant, factorise it with linalg.Factorize and
// solve with SolveInto. It returns the value and, for ordinary kriging,
// the variance Σ μ_k·γ_ik + m. ok is false when the dense system is
// singular.
func denseReference(variant string, model variogram.Model, xs [][]float64, ys []float64, q []float64) (val, variance float64, ok bool) {
	n := len(xs)
	switch variant {
	case "simple":
		// C(h) = sill - γ(h), sill the model plateau (bounded families)
		// or the largest support semivariance (unbounded ones).
		var sill float64
		switch m := model.(type) {
		case *variogram.SphericalModel:
			sill = m.Sill + m.Nugget
		case *variogram.ExponentialModel:
			sill = m.Sill + m.Nugget
		default:
			for j := range xs {
				for k := j + 1; k < n; k++ {
					sill = math.Max(sill, model.Gamma(L1Distance(xs[j], xs[k])))
				}
			}
		}
		var mean float64
		for _, y := range ys {
			mean += y
		}
		mean /= float64(n)
		c := linalg.NewMatrix(n, n)
		rhs := make([]float64, n)
		for j := range xs {
			for k := range xs {
				c.Set(j, k, sill-model.Gamma(L1Distance(xs[j], xs[k])))
			}
			rhs[j] = math.Max(sill-model.Gamma(L1Distance(q, xs[j])), 0)
		}
		w, ok := denseSolve(c, rhs)
		if !ok {
			return 0, 0, false
		}
		val = mean
		for j, y := range ys {
			val += w[j] * (y - mean)
		}
		return val, 0, true
	case "universal":
		// Drift terms f_0 = 1 plus every axis the support varies along,
		// at most n-2 of them; a singular drift system degrades to
		// ordinary kriging.
		var dims []int
		for d := range xs[0] {
			for _, x := range xs[1:] {
				if x[d] != xs[0][d] && len(dims) < n-2 {
					dims = append(dims, d)
					break
				}
			}
		}
		size := n + 1 + len(dims)
		g := linalg.NewMatrix(size, size)
		rhs := make([]float64, size)
		for j := range xs {
			for k := range xs {
				if k != j { // γ(0) = 0 on the diagonal (Eq. 9)
					g.Set(j, k, model.Gamma(L1Distance(xs[j], xs[k])))
				}
			}
			g.Set(j, n, 1)
			g.Set(n, j, 1)
			for i, d := range dims {
				g.Set(j, n+1+i, xs[j][d])
				g.Set(n+1+i, j, xs[j][d])
			}
			rhs[j] = model.Gamma(L1Distance(q, xs[j]))
		}
		rhs[n] = 1
		for i, d := range dims {
			rhs[n+1+i] = q[d]
		}
		if w, ok := denseSolve(g, rhs); ok {
			return linalg.Dot(w[:n], ys), 0, true
		}
		return denseReference("ordinary", model, xs, ys, q)
	default:
		g := linalg.NewMatrix(n+1, n+1)
		rhs := make([]float64, n+1)
		for j := range xs {
			for k := range xs {
				if k != j { // γ(0) = 0 on the diagonal (Eq. 9)
					g.Set(j, k, model.Gamma(L1Distance(xs[j], xs[k])))
				}
			}
			g.Set(j, n, 1)
			g.Set(n, j, 1)
			rhs[j] = model.Gamma(L1Distance(q, xs[j]))
		}
		rhs[n] = 1
		w, ok := denseSolve(g, rhs)
		if !ok {
			return 0, 0, false
		}
		return linalg.Dot(w[:n], ys), math.Max(linalg.Dot(w[:n], rhs[:n])+w[n], 0), true
	}
}

// denseSolve factorises a by pivoted LU and solves a·x = b.
func denseSolve(a *linalg.Matrix, b []float64) ([]float64, bool) {
	f, err := linalg.Factorize(a)
	if err != nil {
		return nil, false
	}
	x := make([]float64, len(b))
	if err := f.SolveInto(x, b); err != nil {
		return nil, false
	}
	return x, true
}

// drawQueries draws k query points around a support: every seventh lands
// exactly on a support point (the γ(h <= 0) nugget branch), the rest are
// jittered lattice points.
func drawQueries(r *rng.Stream, xs [][]float64, k int) [][]float64 {
	dim := len(xs[0])
	queries := make([][]float64, k)
	for j := range queries {
		if j%7 == 3 {
			queries[j] = append([]float64(nil), xs[r.Intn(len(xs))]...)
			continue
		}
		q := make([]float64, dim)
		for i := range q {
			q[i] = float64(r.IntRange(0, 14)) + r.NormScaled(0, 0.25)
		}
		queries[j] = q
	}
	return queries
}

// TestBatchMatchesSequentialPropertyWall is the batch-prediction
// property wall at the operating point (n = 2–10 supports, Nv = 2–23
// dimensions): across 100 seeded supports × {ordinary, simple,
// universal} × 3 variogram models × K ∈ {1, 2, 7, 64},
//
//   - a K-column PredictBatch (and PredictVarBatch for ordinary) must
//     reproduce K one-column Predict/PredictVar calls BIT FOR BIT, which
//     pits the 4-wide solve and output kernels against the single-column
//     ones every K = 1 call runs;
//   - every answer must match an independent dense reference (assemble,
//     linalg.Factorize, SolveInto) to 1e-9 relative.
func TestBatchMatchesSequentialPropertyWall(t *testing.T) {
	r := rng.New(701)
	ks := []int{1, 2, 7, 64}
	const maxK = 64
	type variant struct {
		name  string
		batch func(queries [][]float64, out []float64) error
		one   func(q []float64) (float64, error)
	}
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(9)
		dim := 2 + r.Intn(22)
		xs, ys := drawSupport(r, n, dim)
		queries := drawQueries(r, xs, maxK)
		for mi, model := range batchModels() {
			o := &Ordinary{Model: model, CacheSize: 8}
			s := &Simple{Model: model, CacheSize: 8}
			u := &Universal{Model: model}
			variants := []variant{
				{"ordinary", func(q [][]float64, out []float64) error { return o.PredictBatch(xs, ys, q, out) },
					func(q []float64) (float64, error) { return o.Predict(xs, ys, q) }},
				{"simple", func(q [][]float64, out []float64) error { return s.PredictBatch(xs, ys, q, out) },
					func(q []float64) (float64, error) { return s.Predict(xs, ys, q) }},
				{"universal", func(q [][]float64, out []float64) error { return u.PredictBatch(xs, ys, q, out) },
					func(q []float64) (float64, error) { return u.Predict(xs, ys, q) }},
			}
			for _, v := range variants {
				for _, k := range ks {
					out := make([]float64, k)
					if err := v.batch(queries[:k], out); err != nil {
						// A degenerate batch is acceptable only if the
						// one-column call degenerates too.
						if _, serr := v.one(queries[0]); serr == nil {
							t.Fatalf("trial %d %s model %d K=%d: batch failed (%v) but K=1 succeeds", trial, v.name, mi, k, err)
						}
						continue
					}
					for j := 0; j < k; j++ {
						want, err := v.one(queries[j])
						if err != nil {
							t.Fatalf("trial %d %s model %d K=%d q%d: K=1 error %v after batch success", trial, v.name, mi, k, j, err)
						}
						if !bitEqual(out[j], want) {
							t.Fatalf("trial %d %s model %d K=%d q%d: batch %v != K=1 %v (diff %g)",
								trial, v.name, mi, k, j, out[j], want, out[j]-want)
						}
					}
				}
				for j, q := range queries {
					got, err := v.one(q)
					ref, _, ok := denseReference(v.name, model, xs, ys, q)
					if err != nil || !ok || !relClose(got, ref, 1e-9) {
						t.Fatalf("trial %d %s model %d q%d: %v (err %v) != dense reference %v (ok %v)",
							trial, v.name, mi, j, got, err, ref, ok)
					}
				}
			}
			// Ordinary also carries the variance through the batch.
			for _, k := range ks {
				outV := make([]float64, k)
				outVar := make([]float64, k)
				if err := o.PredictVarBatch(xs, ys, queries[:k], outV, outVar); err != nil {
					continue
				}
				for j := 0; j < k; j++ {
					wv, wvar, err := o.PredictVar(xs, ys, queries[j])
					if err != nil {
						t.Fatalf("trial %d model %d K=%d q%d: K=1 PredictVar: %v", trial, mi, k, j, err)
					}
					if !bitEqual(outV[j], wv) || !bitEqual(outVar[j], wvar) {
						t.Fatalf("trial %d model %d K=%d q%d: batch (%v, %v) != K=1 (%v, %v)",
							trial, mi, k, j, outV[j], outVar[j], wv, wvar)
					}
					if _, rvar, ok := denseReference("ordinary", model, xs, ys, queries[j]); !ok || !relClose(wvar, rvar, 1e-9) {
						t.Fatalf("trial %d model %d q%d: variance %v != dense reference %v (ok %v)", trial, mi, j, wvar, rvar, ok)
					}
				}
			}
		}
	}
}

// TestBatchMatchesSequentialExtendedFactor pins the Lagrange-row
// permutation path: a support served by an incrementally extended
// ordinary factor stores its appended rows AFTER the Lagrange row, so
// every solve re-permutes through factored.logicalIndex. The K-column
// solve must thread the same permutation per column as K one-column
// calls, and both must match the dense reference.
func TestBatchMatchesSequentialExtendedFactor(t *testing.T) {
	r := rng.New(702)
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(7)
		dim := 2 + r.Intn(22)
		xs, ys := drawSupport(r, n, dim)
		for _, model := range batchModels() {
			o := &Ordinary{Model: model, CacheSize: 8}
			// Warm the cache on the prefix, then touch the full support
			// once so the factor is grown through lu.Extend.
			if _, err := o.Predict(xs[:n-2], ys[:n-2], xs[0]); err != nil {
				t.Fatalf("trial %d: prefix warm: %v", trial, err)
			}
			if _, err := o.Predict(xs, ys, xs[0]); err != nil {
				t.Fatalf("trial %d: extend warm: %v", trial, err)
			}
			if o.cache.incrementalHits.Load() == 0 {
				t.Fatalf("trial %d: support growth did not take the incremental path", trial)
			}
			queries := drawQueries(r, xs, 7)
			outV := make([]float64, len(queries))
			outVar := make([]float64, len(queries))
			if err := o.PredictVarBatch(xs, ys, queries, outV, outVar); err != nil {
				t.Fatalf("trial %d: batch: %v", trial, err)
			}
			for j, q := range queries {
				wv, wvar, err := o.PredictVar(xs, ys, q)
				if err != nil {
					t.Fatal(err)
				}
				if !bitEqual(outV[j], wv) || !bitEqual(outVar[j], wvar) {
					t.Fatalf("trial %d q%d: extended-factor batch (%v, %v) != K=1 (%v, %v)",
						trial, j, outV[j], outVar[j], wv, wvar)
				}
				rv, rvar, ok := denseReference("ordinary", model, xs, ys, q)
				if !ok || !relClose(wv, rv, 1e-9) || !relClose(wvar, rvar, 1e-9) {
					t.Fatalf("trial %d q%d: extended factor (%v, %v) != dense reference (%v, %v)",
						trial, j, wv, wvar, rv, rvar)
				}
			}
		}
	}
}

// TestBatchShapeAndEdgeCases covers the error surface: mismatched
// output length, empty support with pending queries, zero queries,
// single-point support.
func TestBatchShapeAndEdgeCases(t *testing.T) {
	r := rng.New(704)
	xs, ys := drawSupport(r, 5, 2)
	o := &Ordinary{Model: &variogram.LinearModel{Slope: 1}}
	queries := [][]float64{{1, 2}, {3, 4}}
	if err := o.PredictBatch(xs, ys, queries, make([]float64, 1)); err == nil {
		t.Fatal("short output accepted")
	}
	if err := o.PredictBatch(xs, ys[:3], queries, make([]float64, 2)); err == nil {
		t.Fatal("mismatched ys accepted")
	}
	if err := o.PredictBatch(nil, nil, queries, make([]float64, 2)); !errors.Is(err, ErrNoSupport) {
		t.Fatalf("empty support: %v", err)
	}
	if err := o.PredictBatch(xs, ys, nil, nil); err != nil {
		t.Fatalf("zero queries: %v", err)
	}
	out := make([]float64, 2)
	if err := o.PredictBatch(xs[:1], ys[:1], queries, out); err != nil {
		t.Fatalf("single support: %v", err)
	}
	if out[0] != ys[0] || out[1] != ys[0] {
		t.Fatalf("single support prediction %v, want %v", out, ys[0])
	}
	outVar := make([]float64, 2)
	if err := o.PredictVarBatch(xs[:1], ys[:1], queries, out, outVar); err != nil || outVar[0] != 0 {
		t.Fatalf("single support var: %v %v", err, outVar)
	}
}

// TestSimpleBatchFlatField: a constant-valued support has sill 0; the
// batch path must answer the mean for every query like the sequential
// path does, without touching a factor.
func TestSimpleBatchFlatField(t *testing.T) {
	xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {2, 2}}
	ys := []float64{5, 5, 5, 5}
	s := &Simple{FitKind: variogram.Linear}
	queries := [][]float64{{0.5, 0.5}, {3, 3}, {0, 0}}
	out := make([]float64, 3)
	if err := s.PredictBatch(xs, ys, queries, out); err != nil {
		t.Fatal(err)
	}
	for j, q := range queries {
		want, err := s.Predict(xs, ys, q)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(out[j], want) {
			t.Fatalf("q%d: %v != %v", j, out[j], want)
		}
		if out[j] != 5 {
			t.Fatalf("q%d: flat field predicted %v, want 5", j, out[j])
		}
	}
}

// TestAppendRowDuplicateAfterTransformFallsBack is the kriging-level
// regression test for the AppendRow fail-open guard. A weighted-L1
// anisotropy with an infinite axis scale maps two support points that
// share that axis coordinate to a NaN separation (∞·0); the appended
// covariance border is then NaN and the old guard accepted the
// sqrt(NaN)-poisoned factor as a successful incremental extension,
// caching it. With the fix AppendRow reports ErrSingular, the cache
// falls back to refactorisation (no incremental hit is recorded), the
// degenerate support surfaces as an error, and the previously cached
// prefix system keeps serving healthy predictions.
func TestAppendRowDuplicateAfterTransformFallsBack(t *testing.T) {
	inf := math.Inf(1)
	dist := WeightedL1([]float64{inf, 1})
	model := &variogram.SphericalModel{Sill: 4, Range: 3, Nugget: 0.1}
	s := &Simple{Dist: dist, Model: model, CacheSize: 8}
	// Distinct axis-0 coordinates: every pairwise separation is +∞, the
	// covariances clamp at zero, and the system is a healthy diagonal.
	xs := [][]float64{{0, 0}, {1, 3}, {2, 1}, {3, 4}, {4, 2}}
	ys := []float64{1, 2, 3, 4, 5}
	q := []float64{9, 9}
	if _, err := s.Predict(xs, ys, q); err != nil {
		t.Fatalf("prefix support must predict cleanly: %v", err)
	}
	// Appended point duplicates xs[1] on the infinite axis (axis-0) after
	// the transform, though it is a distinct lattice point.
	ext := append(append([][]float64{}, xs...), []float64{1, 12})
	extYs := append(append([]float64{}, ys...), 6)
	if _, err := s.Predict(ext, extYs, q); err == nil {
		t.Fatal("duplicate-after-transform support produced a prediction from a poisoned factor")
	}
	if hits := s.cache.incrementalHits.Load(); hits != 0 {
		t.Fatalf("poisoned border recorded %d incremental hits; AppendRow must reject it", hits)
	}
	// The healthy prefix system must still serve.
	if v, err := s.Predict(xs, ys, q); err != nil || math.IsNaN(v) {
		t.Fatalf("prefix support corrupted after failed extension: v=%v err=%v", v, err)
	}
}
