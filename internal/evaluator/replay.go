package evaluator

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/space"
	"repro/internal/store"
)

// TracePoint is one step of a recorded optimisation trajectory: the
// configuration the optimiser asked about, in order, with the true
// (simulation-measured) metric value.
type TracePoint struct {
	Config space.Config
	Lambda float64
}

// Trace is a recorded trajectory. The paper's Table I protocol: "the
// optimization algorithm has been launched on the exhaustive input data
// set I to get the real metric values for each tested configuration...
// The points have been recorded in the order in which they have to be
// measured, for comparison with the results obtained by kriging."
type Trace []TracePoint

// Entries converts the trajectory to store entries in trace order, the
// form consumed by the store's bulk-write path (store.AddBatch) and by
// Evaluator.Preload. Configurations are not cloned — the store clones on
// insert.
func (t Trace) Entries() []store.Entry {
	out := make([]store.Entry, len(t))
	for i, tp := range t {
		out[i] = store.Entry{Config: tp.Config, Lambda: tp.Lambda}
	}
	return out
}

// ErrorKind selects how the interpolation error ε of a replay is
// expressed: equivalent bits (Eq. 11, noise-power metrics with λ = -P) or
// relative difference (Eq. 12, any other metric).
type ErrorKind int

// Error kinds.
const (
	// ErrorBits interprets λ as -P (noise power) and reports
	// ε = |log2(P̂/P)| (Eq. 11).
	ErrorBits ErrorKind = iota
	// ErrorRelative reports ε = |λ̂-λ|/|λ| (Eq. 12).
	ErrorRelative
)

// String returns the kind name.
func (k ErrorKind) String() string {
	if k == ErrorRelative {
		return "relative"
	}
	return "bits"
}

// ReplayMode selects how the replay computes each interpolation.
type ReplayMode int

// Replay modes.
const (
	// ModePaper reproduces the paper's Table I protocol: the
	// simulate-or-interpolate decision is made sequentially (a point can
	// only be interpolated when strictly more than Nn,min *previously
	// simulated* points lie within d), but the error measurement kriges
	// each interpolated point from ALL other recorded configurations
	// within d, using their true metric values — an offline "could this
	// point have been inferred from its neighbourhood" study.
	//
	// This is the only reading consistent with the paper's reported
	// (p%, j̄) pairs: at d = 2 the FIR trajectory interpolates exactly
	// every third point (p = 33.33%) while j̄ = 3.78 ≈ the ±2
	// neighbourhood size of a trajectory walk, and j̄ grows to 8.61 ≈
	// the ±5 neighbourhood at d = 5 — support sets that sequential
	// simulated-only neighbourhoods cannot produce.
	ModePaper ReplayMode = iota
	// ModeFinalSim kriges each interpolated point from the final
	// simulated set (the configurations the accelerated run would truly
	// have simulated), both earlier and later in the trace.
	ModeFinalSim
	// ModeLive uses only the points simulated *before* the query,
	// exactly what a live optimisation run has at its disposal. The
	// frontier points of a phase-1 descent then extrapolate, which is
	// measurably worse; the ablation benches quantify the gap.
	ModeLive
)

// String returns the mode name.
func (m ReplayMode) String() string {
	switch m {
	case ModeFinalSim:
		return "finalsim"
	case ModeLive:
		return "live"
	default:
		return "paper"
	}
}

// ReplayRow is one Table I row: the statistics of replaying one recorded
// trajectory with one distance d.
type ReplayRow struct {
	D            float64 // neighbourhood radius
	N            int     // trajectory length
	NInterp      int     // configurations interpolated
	NSim         int     // configurations simulated
	Percent      float64 // p(%)
	MeanNeigh    float64 // j̄
	MaxEps       float64 // max ε
	MeanEps      float64 // µ ε
	EpsInfCount  int     // interpolations whose ε was unbounded (P̂<=0)
	ErrKind      ErrorKind
	Decisions    int // evaluations downstream code would base decisions on
	KrigFailures int // degenerate systems that fell back to simulation
}

// Replay feeds a recorded trajectory through the kriging decision rule
// and measures the interpolation error of every kriged point against the
// recorded truth. No simulator runs: "simulated" points take their value
// from the trace, reproducing the paper's measurement protocol.
func Replay(trace Trace, opts Options, kind ErrorKind) (ReplayRow, error) {
	return ReplayModed(trace, opts, kind, ModePaper)
}

// ReplayModed is Replay with an explicit support mode; see ReplayMode.
func ReplayModed(trace Trace, opts Options, kind ErrorKind, mode ReplayMode) (ReplayRow, error) {
	if err := opts.validate(); err != nil {
		return ReplayRow{}, err
	}
	if opts.Interp == nil {
		return ReplayRow{}, fmt.Errorf("%w: Replay needs an explicit or default interpolator", ErrBadOptions)
	}
	if mode != ModePaper && mode != ModeFinalSim && mode != ModeLive {
		return ReplayRow{}, fmt.Errorf("evaluator: unknown replay mode %d", mode)
	}
	// Deduplicate: a revisited configuration is a free exact lookup, not
	// a new tested configuration in the paper's percentages.
	seen := make(map[string]bool, len(trace))
	var pts Trace
	for _, tp := range trace {
		key := tp.Config.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		pts = append(pts, tp)
	}

	row := ReplayRow{D: opts.D, ErrKind: kind, N: len(pts)}
	var eps metrics.Summary
	var sumNeigh int
	// One reused query buffer serves every radius and k-nearest query of
	// the replay, and the kriging inputs reuse their own buffers: the
	// interpolator keeps copies of whatever it retains.
	var nb store.Neighborhood
	var ys, x []float64
	score := func(sup *store.Neighborhood, tp TracePoint) {
		vals := sup.Values
		if opts.Transform != nil {
			ys = ys[:0]
			for _, v := range sup.Values {
				ys = append(ys, opts.Transform(v))
			}
			vals = ys
		}
		x = x[:0]
		for _, v := range tp.Config {
			x = append(x, float64(v))
		}
		pred, err := opts.Interp.Predict(sup.Coords, vals, x)
		if err != nil {
			row.KrigFailures++
			return
		}
		if opts.Untransform != nil {
			pred = opts.Untransform(pred)
		}
		sumNeigh += sup.Len()
		eps.Add(epsilon(kind, pred, tp.Lambda))
	}

	// Pass 1 — the sequential simulate-or-interpolate decision of
	// Algorithms 1-2: a point is interpolated when strictly more than
	// Nn,min already-simulated points lie within d; interpolated points
	// never enter the support store. At each decision st holds exactly
	// the points simulated before it, in trace order, which is the live
	// support.
	st := store.New(opts.Metric)
	interp := make([]bool, len(pts))
	for i, tp := range pts {
		if opts.D > 0 && st.NeighborsInto(&nb, tp.Config, opts.D).Len() > opts.NnMin {
			interp[i] = true
			row.NInterp++
			if mode == ModeLive {
				score(st.NearestKInto(&nb, tp.Config, opts.D, opts.MaxSupport), tp)
			}
			continue
		}
		st.Add(tp.Config, tp.Lambda)
		row.NSim++
	}

	// Pass 2 — the offline supports, which need the whole recorded or
	// simulated set. The points are scored in trace order, as pass 1
	// scores the live ones.
	switch mode {
	case ModePaper:
		// All other recorded configurations within d, true values. The
		// query itself is in the store at distance zero and, the points
		// being deduplicated, it is the only entry there: asking for one
		// more than the cap and dropping it gives the nearest others in
		// the order NearestK gives them.
		all := store.New(opts.Metric)
		all.AddBatch(pts.Entries())
		k := 0
		if opts.MaxSupport > 0 {
			k = opts.MaxSupport + 1
		}
		for i, tp := range pts {
			if interp[i] {
				score(withoutQuery(all.NearestKInto(&nb, tp.Config, opts.D, k)), tp)
			}
		}
	case ModeFinalSim:
		for i, tp := range pts {
			if interp[i] {
				score(st.NearestKInto(&nb, tp.Config, opts.D, opts.MaxSupport), tp)
			}
		}
	}
	if row.N > 0 {
		row.Percent = 100 * float64(row.NInterp) / float64(row.N)
	}
	if row.NInterp > 0 {
		row.MeanNeigh = float64(sumNeigh) / float64(row.NInterp)
	}
	row.MaxEps = eps.Max()
	row.MeanEps = eps.Mean()
	row.EpsInfCount = eps.InfCount()
	row.Decisions = row.N
	return row, nil
}

// withoutQuery drops the single zero-distance support point, the query
// itself, from nb in place, keeping the order of the others.
func withoutQuery(nb *store.Neighborhood) *store.Neighborhood {
	for i, d := range nb.Dists {
		if d == 0 {
			nb.Coords = append(nb.Coords[:i], nb.Coords[i+1:]...)
			nb.Values = append(nb.Values[:i], nb.Values[i+1:]...)
			nb.Dists = append(nb.Dists[:i], nb.Dists[i+1:]...)
			break
		}
	}
	return nb
}

func epsilon(kind ErrorKind, lambdaHat, lambda float64) float64 {
	switch kind {
	case ErrorBits:
		// λ = -P for the noise-power benchmarks.
		return metrics.EpsilonBits(-lambdaHat, -lambda)
	case ErrorRelative:
		return metrics.EpsilonRelative(lambdaHat, lambda)
	default:
		panic("evaluator: unknown error kind")
	}
}

// RecordingSimulator wraps a Simulator and records every evaluation into
// a Trace, the tool used to capture the simulation-only trajectory before
// a Replay.
type RecordingSimulator struct {
	Inner Simulator
	Trace Trace
}

// Evaluate implements Simulator.
func (r *RecordingSimulator) Evaluate(cfg space.Config) (float64, error) {
	lam, err := r.Inner.Evaluate(cfg)
	if err != nil {
		return 0, err
	}
	r.Trace = append(r.Trace, TracePoint{Config: cfg.Clone(), Lambda: lam})
	return lam, nil
}

// Nv implements Simulator.
func (r *RecordingSimulator) Nv() int { return r.Inner.Nv() }

// CachingSimulator wraps a Simulator and memoises results by exact
// configuration, so that recording a trajectory does not re-simulate
// configurations the optimiser revisits.
type CachingSimulator struct {
	Inner Simulator
	cache map[string]float64
}

// NewCachingSimulator wraps sim with a memo table.
func NewCachingSimulator(sim Simulator) *CachingSimulator {
	return &CachingSimulator{Inner: sim, cache: make(map[string]float64)}
}

// Evaluate implements Simulator.
func (c *CachingSimulator) Evaluate(cfg space.Config) (float64, error) {
	key := cfg.Key()
	if v, ok := c.cache[key]; ok {
		return v, nil
	}
	v, err := c.Inner.Evaluate(cfg)
	if err != nil {
		return 0, err
	}
	c.cache[key] = v
	return v, nil
}

// Nv implements Simulator.
func (c *CachingSimulator) Nv() int { return c.Inner.Nv() }

// Misses returns the number of distinct configurations simulated.
func (c *CachingSimulator) Misses() int { return len(c.cache) }
