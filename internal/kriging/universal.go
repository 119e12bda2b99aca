package kriging

import (
	"repro/internal/linalg"
	"repro/internal/variogram"
)

// Universal implements universal kriging (kriging with a linear drift):
// the field is modelled as a linear trend m(x) = β₀ + Σ β_j·x_j plus a
// stationary residual, and the kriging system is augmented with one
// unbiasedness constraint per drift term.
//
// Ordinary kriging reverts to a weighted mean outside the support hull,
// which is exactly the situation at the frontier of a min+1 phase-1
// descent; with a linear drift the predictor extends the local trend
// instead. The ablation benches compare the two on the recorded
// trajectories.
//
// Drift terms are included per dimension only when the support actually
// varies in that dimension (otherwise the coefficient is unidentifiable
// and the system singular); with too few supports the predictor degrades
// gracefully to ordinary kriging.
type Universal struct {
	// Dist is the separation measure; nil means L1.
	Dist Distance
	// Model, when non-nil, is used for every prediction.
	Model variogram.Model
	// FitKind selects the per-query fit family when Model is nil.
	FitKind variogram.Kind
	// PowerBeta overrides the power-model exponent (see Ordinary).
	PowerBeta float64
	// Nugget regularises the system diagonal.
	Nugget float64
}

// Name implements Interpolator.
func (u *Universal) Name() string { return "universal-kriging" }

func (u *Universal) dist() Distance {
	if u.Dist != nil {
		return u.Dist
	}
	return L1Distance
}

// driftDims returns the first maxTerms dimensions along which the
// support varies; only those get a drift coefficient.
func driftDims(xs [][]float64, maxTerms int) []int {
	if len(xs) == 0 || maxTerms <= 0 {
		return nil
	}
	nv := len(xs[0])
	var dims []int
	for d := 0; d < nv; d++ {
		first := xs[0][d]
		for _, x := range xs[1:] {
			if x[d] != first {
				dims = append(dims, d)
				break
			}
		}
		if len(dims) == maxTerms {
			break
		}
	}
	return dims
}

// Predict implements Interpolator: the K = 1 call of PredictBatch.
func (u *Universal) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	var out [1]float64
	if err := u.PredictBatch(xs, ys, [][]float64{x}, out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}

// system fits (or takes) the variogram of a support of at least two
// points and assembles and factorises its drift-augmented kriging
// system: Γ bordered by the drift columns f_0 = 1, f_i = x_dims[i-1].
// A nil factor with a nil error marks a degenerate drift system; the
// caller falls back to ordinary kriging with the returned model.
func (u *Universal) system(xs [][]float64, ys []float64) (model variogram.Model, dims []int, f *linalg.LU, err error) {
	n := len(xs)
	dist := u.dist()
	model = u.Model
	if model == nil {
		if u.PowerBeta != 0 {
			model, err = variogram.FitPower(variogram.CloudFromSamples(xs, ys, dist), u.PowerBeta, u.Nugget)
		} else {
			model, err = variogram.FitSamples(u.FitKind, xs, ys, dist, u.Nugget)
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}
	// Each drift term consumes one degree of freedom; keep at least two
	// supports' worth of residual information.
	dims = driftDims(xs, n-2)
	size := n + 1 + len(dims) // supports + constant + identifiable linear terms
	g := linalg.NewMatrix(size, size)
	var scale float64
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			gv := model.Gamma(dist(xs[j], xs[k]))
			g.Set(j, k, gv)
			g.Set(k, j, gv)
			if gv > scale {
				scale = gv
			}
		}
	}
	jitter := 1e-12 * (scale + 1)
	for j := 0; j < n; j++ {
		g.Set(j, j, u.Nugget+jitter)
		g.Set(j, n, 1)
		g.Set(n, j, 1)
		for i, d := range dims {
			g.Set(j, n+1+i, xs[j][d])
			g.Set(n+1+i, j, xs[j][d])
		}
	}
	f, err = linalg.Factorize(g)
	if err != nil {
		return model, dims, nil, nil // degenerate: ordinary-kriging fallback
	}
	return model, dims, f, nil
}
