package evaluator

import (
	"context"
	"math"
	"time"

	"repro/internal/fnv1a"
	"repro/internal/space"
	"repro/internal/store"
)

// BatchPredictor is implemented by interpolators that can answer many
// queries sharing one support through a single blocked multi-RHS solve
// (kriging.Ordinary, kriging.Simple and kriging.Universal all qualify).
// Results must be bit-identical to calling Predict once per query — the
// evaluator relies on that to route batch members through either path
// without changing their answers.
type BatchPredictor interface {
	PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error
}

// BatchVariancePredictor is the variance-reporting form of
// BatchPredictor (e.g. kriging.Ordinary). When variance gating is on
// (Options.MaxVariance) the batch path requires it, so gating decisions
// stay identical to the sequential VariancePredictor path.
type BatchVariancePredictor interface {
	PredictVarBatch(xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error
}

// predictGroup accumulates the batch members that share one support: the
// neighbourhood search returned the same points in the same order, so
// one blocked solve answers every member. Inner coordinate slices alias
// the snapshot's stable precomputed coordinates (read-only); ys holds
// untransformed store values, transformed once when the group is served.
type predictGroup struct {
	xs   [][]float64
	ys   []float64
	idxs []int       // input positions of the member queries
	qx   [][]float64 // member query points as floats
}

// supportKey fingerprints a neighbourhood's ordered coordinates and
// values with FNV-1a over their float bit patterns; it buckets batch
// members before the exact (order-sensitive) comparison. Order matters:
// kriging results are bit-identical only for the same support order,
// and the store's query order is deterministic (insertion order, or
// (distance, sequence) when a k-cap truncates), so queries that resolve
// the same support group together exactly when the blocked solve can
// serve them all.
func supportKey(nb *store.Neighborhood) uint64 {
	h := fnv1a.Mix(fnv1a.Offset, math.Float64bits(float64(nb.Len())))
	for _, c := range nb.Coords {
		for _, v := range c {
			h = fnv1a.Mix(h, math.Float64bits(v))
		}
	}
	for _, v := range nb.Values {
		h = fnv1a.Mix(h, math.Float64bits(v))
	}
	return h
}

// sameSupport reports whether the group's support is exactly (order
// included) the neighbourhood's.
func sameSupport(g *predictGroup, nb *store.Neighborhood) bool {
	if len(g.ys) != nb.Len() {
		return false
	}
	for i, v := range g.ys {
		if v != nb.Values[i] {
			return false
		}
	}
	for i, c := range g.xs {
		d := nb.Coords[i]
		if len(c) != len(d) {
			return false
		}
		for j := range c {
			if c[j] != d[j] {
				return false
			}
		}
	}
	return true
}

// batchPredictPrepass is EvaluateAll's shared-support detector: it runs
// once on the caller's goroutine, against the batch snapshot, before the
// workers start. Every query is classified — exact hit (answered on the
// spot), insufficient support (marked needsSim so workers skip the
// redundant neighbourhood search and simulate directly), or
// interpolatable, in which case queries whose neighbourhood search
// returned the same support in the same order are grouped and served
// through ONE blocked PredictBatch/PredictVarBatch call per group. A
// min+1/max-1 competition round — Nv single-bit perturbations of one
// incumbent, all kriged from the same neighbourhood — collapses from Nv
// triangular-solve passes to one.
//
// Groups of one keep the ordinary worker path (nothing to amortise).
// Answers are bit-identical to the per-query path by the BatchPredictor
// contract, so routing is invisible in the results; Stats.NBatchPredict
// counts the queries served by blocked solves (the batch hit rate is
// NBatchPredict/NInterp).
//
// It returns nil maps when the pre-pass does not apply: interpolation
// off (D == 0), an interpolator without PredictBatch, or variance
// gating without PredictVarBatch.
func (e *Evaluator) batchPredictPrepass(ctx context.Context, snap storeView, cfgs []space.Config, results []Result, stats *counters) (resolved, needsSim []bool) {
	if e.opts.D <= 0 {
		return nil, nil
	}
	bp, ok := e.opts.Interp.(BatchPredictor)
	if !ok {
		return nil, nil
	}
	var bvp BatchVariancePredictor
	if _, gated := e.opts.Interp.(VariancePredictor); gated && e.opts.MaxVariance > 0 {
		if bvp, ok = e.opts.Interp.(BatchVariancePredictor); !ok {
			// The sequential path would gate on variance but the batch
			// path could not; keep the per-query path so gating decisions
			// are unchanged.
			return nil, nil
		}
	}
	qs := e.scratch.Get().(*queryScratch)
	defer e.scratch.Put(qs)
	resolved = make([]bool, len(cfgs))
	needsSim = make([]bool, len(cfgs))
	var groups []predictGroup
	byKey := make(map[uint64][]int)
	for idx, cfg := range cfgs {
		if ctx.Err() != nil {
			// Leave the rest unclassified; the workers observe the dead
			// context themselves.
			return resolved, needsSim
		}
		if lam, ok := snap.Lookup(cfg); ok {
			results[idx] = Result{Lambda: lam, Source: Simulated}
			resolved[idx] = true
			continue
		}
		support, ok := e.gatherSupport(snap, cfg, qs)
		if !ok {
			needsSim[idx] = true
			continue
		}
		key := supportKey(support)
		gi := -1
		for _, cand := range byKey[key] {
			if sameSupport(&groups[cand], support) {
				gi = cand
				break
			}
		}
		if gi == -1 {
			// First member: copy the slice headers out of the reused query
			// buffer (the coordinate data itself is snapshot-stable).
			groups = append(groups, predictGroup{
				xs: append([][]float64(nil), support.Coords...),
				ys: append([]float64(nil), support.Values...),
			})
			gi = len(groups) - 1
			byKey[key] = append(byKey[key], gi)
		}
		g := &groups[gi]
		x := make([]float64, len(cfg))
		for i, v := range cfg {
			x[i] = float64(v)
		}
		g.idxs = append(g.idxs, idx)
		g.qx = append(g.qx, x)
	}
	for gi := range groups {
		if g := &groups[gi]; len(g.idxs) > 1 {
			e.serveGroup(bp, bvp, g, results, resolved, needsSim, stats)
		}
	}
	return resolved, needsSim
}

// serveGroup answers one shared-support group through a blocked solve,
// with the same variance gating, degenerate-system fallback and stats
// accounting as the per-query path: a gated or degenerate member falls
// back to simulation (needsSim), the rest are interpolations.
func (e *Evaluator) serveGroup(bp BatchPredictor, bvp BatchVariancePredictor, g *predictGroup, results []Result, resolved, needsSim []bool, stats *counters) {
	start := time.Now()
	defer func() { stats.interpTime.Add(int64(time.Since(start))) }()
	ys := g.ys
	if e.opts.Transform != nil {
		ys = make([]float64, len(g.ys))
		for i, v := range g.ys {
			ys[i] = e.opts.Transform(v)
		}
	}
	k := len(g.idxs)
	vals := make([]float64, k)
	var vars []float64
	var err error
	if bvp != nil {
		vars = make([]float64, k)
		err = bvp.PredictVarBatch(g.xs, ys, g.qx, vals, vars)
	} else {
		err = bp.PredictBatch(g.xs, ys, g.qx, vals)
	}
	if err != nil {
		// A blocked solve fails as a unit even when a single column is
		// degenerate; re-answer each member on its own so the healthy ones
		// keep their interpolation, exactly as per-query evaluation would.
		for i, idx := range g.idxs {
			e.serveGroupMember(g, i, idx, ys, results, resolved, needsSim, stats)
		}
		return
	}
	for i, idx := range g.idxs {
		if vars != nil && vars[i] > e.opts.MaxVariance {
			stats.nVarRejected.Add(1)
			needsSim[idx] = true
			continue
		}
		pred := vals[i]
		if e.opts.Untransform != nil {
			pred = e.opts.Untransform(pred)
		}
		results[idx] = Result{Lambda: pred, Source: Interpolated, Neighbors: len(g.xs)}
		resolved[idx] = true
		stats.nInterp.Add(1)
		stats.sumNeigh.Add(int64(len(g.xs)))
		stats.nBatchPred.Add(1)
	}
}

// serveGroupMember is the per-query fallback for one member of a group
// whose blocked solve failed; ys is already transformed.
func (e *Evaluator) serveGroupMember(g *predictGroup, i, idx int, ys []float64, results []Result, resolved, needsSim []bool, stats *counters) {
	pred, err := e.predictGated(g.xs, ys, g.qx[i], stats)
	if err != nil {
		needsSim[idx] = true
		return
	}
	results[idx] = Result{Lambda: pred, Source: Interpolated, Neighbors: len(g.xs)}
	resolved[idx] = true
	stats.nInterp.Add(1)
	stats.sumNeigh.Add(int64(len(g.xs)))
}
