package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/optim"
)

// specSeed seeds every benchmark's input data. It is fixed, not taken
// from --seed, so the deterministic metrics (rows, sims, wres) are the
// same in every run and comparable between commits.
const specSeed = 1

// replayBenches are the Table I benchmarks the replay workload records.
// squeezenet is left out: recording its trajectory takes about 70 s.
var replayBenches = []string{"fir", "iir", "fft", "hevc"}

// recorded is one benchmark's set-up output: its spec and the
// simulation-only min+1 trajectory Spec.Record produced.
type recorded struct {
	spec  *bench.Spec
	trace evaluator.Trace
}

func sameTraces(a, b []recorded) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].trace) != len(b[i].trace) {
			return false
		}
		for j, p := range a[i].trace {
			q := b[i].trace[j]
			if !p.Config.Equal(q.Config) || p.Lambda != q.Lambda {
				return false
			}
		}
	}
	return true
}

// recordTraces is the replay set-up: record each benchmark's trajectory
// at Small through Spec.Record.
func recordTraces(ctx context.Context, names []string, t *tracer) ([]recorded, error) {
	var out []recorded
	for _, name := range names {
		sp, err := bench.SpecByName(name, bench.Small)
		if err != nil {
			return nil, err
		}
		if t != nil {
			newSim := sp.NewSimulator
			sp.NewSimulator = func(seed uint64) (evaluator.Simulator, error) {
				sim, err := newSim(seed)
				if err != nil {
					return nil, err
				}
				return traceSim(sim, t, name), nil
			}
		}
		id := t.begin("record")
		trace, err := sp.Record(ctx, specSeed)
		t.end(id, 1, err != nil)
		if err != nil {
			return nil, fmt.Errorf("recording %s: %w", name, err)
		}
		out = append(out, recorded{spec: sp, trace: trace})
	}
	return out, nil
}

// replayPass replays every trajectory at d = 2..5, one ReplayTrace call
// per row. Untraced, the options are Table I's defaults (a fresh
// ordinary-kriging interpolator per row); traced, the same interpolator
// wrapped.
func replayPass(recs []recorded, order []int, t *tracer) ([][]evaluator.ReplayRow, error) {
	rows := make([][]evaluator.ReplayRow, len(recs))
	for _, i := range order {
		r := recs[i]
		for _, d := range bench.DefaultDistances {
			opts := bench.Table1Options{Seed: specSeed, Distances: []float64{d}}
			if t != nil {
				interp, err := traceInterp(&kriging.Ordinary{}, t)
				if err != nil {
					return nil, err
				}
				opts.Interp = interp
			}
			id := t.begin("evaluator")
			res, err := bench.ReplayTrace(r.spec, r.trace, opts)
			t.end(id, 1, err != nil)
			if err != nil {
				return nil, fmt.Errorf("replaying %s at d=%v: %w", r.spec.Name, d, err)
			}
			rows[i] = append(rows[i], res.Rows...)
		}
	}
	return rows, nil
}

// simOnlyBits is the total word length of the cheapest feasible
// configuration on a min+1 trajectory: the wres the simulation-only run
// reached (every feasible phase-2 candidate sits in the last round, at
// the winner's total).
func simOnlyBits(r recorded) float64 {
	best := -1.0
	for _, p := range r.trace {
		if p.Lambda >= r.spec.LambdaMin {
			if b := optim.TotalBits(p.Config); best < 0 || b < best {
				best = b
			}
		}
	}
	return best
}

func runReplay(ctx context.Context, cfg runConfig) (*report, error) {
	return replayWorkload(ctx, cfg, replayBenches)
}

func replayWorkload(ctx context.Context, cfg runConfig, names []string) (*report, error) {
	rep := newReport()
	t := cfg.Tracer
	// Only the first set-up is traced: the per-layer split covers one
	// set-up and one timed pass.
	setups := 0
	recs, err := repeatSetup(rep, func() ([]recorded, error) {
		st := t
		if setups > 0 {
			st = nil
		}
		setups++
		return recordTraces(ctx, names, st)
	}, sameTraces, nil)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(int64(cfg.Seed))).Perm(len(recs))

	var (
		passS []float64
		first [][]evaluator.ReplayRow
	)
	start := time.Now()
	for len(passS) == 0 || time.Since(start) < cfg.Seconds {
		passStart := time.Now()
		rows, err := replayPass(recs, order, t)
		if err != nil {
			return nil, err
		}
		passS = append(passS, time.Since(passStart).Seconds())
		t.stop()
		for i, rs := range rows {
			for j, row := range rs {
				rep.Attempted++
				if row.NSim+row.NInterp != row.N {
					rep.fail("row_nsim_plus_ninterp_ne_n")
				}
				if first != nil && row != first[i][j] {
					rep.fail("row_differs_between_passes")
				}
			}
		}
		if first == nil {
			first = rows
		}
	}

	var (
		nsim, ninterp, n, sumNeighW float64
		entries                     int
		epsSum, epsN, epsMax, bits  float64
		infs, krigFail              int
	)
	for i, rs := range first {
		bits += simOnlyBits(recs[i])
		entries += rs[0].N
		for _, row := range rs {
			rep.printf("row %-4s d=%v N=%d NSim=%d NInterp=%d p=%.2f%% j=%.2f maxEps=%.4f meanEps=%.4f",
				recs[i].spec.Name, row.D, row.N, row.NSim, row.NInterp, row.Percent, row.MeanNeigh, row.MaxEps, row.MeanEps)
			nsim += float64(row.NSim)
			ninterp += float64(row.NInterp)
			n += float64(row.N)
			sumNeighW += row.MeanNeigh * float64(row.NInterp)
			infs += row.EpsInfCount
			krigFail += row.KrigFailures
			if row.ErrKind != evaluator.ErrorBits {
				continue
			}
			k := float64(row.NInterp - row.KrigFailures - row.EpsInfCount)
			epsSum += row.MeanEps * k
			epsN += k
			epsMax = max(epsMax, row.MaxEps)
		}
	}
	rep.printf("passes %d, rows per pass %d, kriged points with unbounded eps %d, kriging failures %d", len(passS), len(names)*len(bench.DefaultDistances), infs, krigFail)
	// A replay request is one whole Table I replay: its rows differ in
	// cost by three orders of magnitude, so percentiles over single rows
	// would sit on the boundary between benchmarks.
	rep.timing("wall_s", "s", median(passS), len(passS))
	p50, cnt := quantile(passS, 0.50)
	p99, _ := quantile(passS, 0.99)
	rep.timing("lat_p50_ms", "ms", 1000*p50, cnt)
	rep.p99("lat_p99_ms", 1000*p99, cnt)
	rep.E2E["sims"] = metric{nsim, "count"}
	rep.E2E["wres_bits"] = metric{bits, "bits"}
	rep.E2E["p_pct"] = metric{100 * ninterp / n, "%"}
	rep.E2E["eps_mean_bits"] = metric{epsSum / epsN, "bits"}
	rep.E2E["eps_max_bits"] = metric{epsMax, "bits"}

	rep.Layers["evaluator.nsim"] = metric{nsim, "count"}
	rep.Layers["evaluator.ninterp"] = metric{ninterp, "count"}
	rep.Layers["evaluator.mean_neighbors"] = metric{sumNeighW / ninterp, "count"}
	rep.Layers["store.entries"] = metric{float64(entries), "count"}
	if t != nil {
		layerMetrics(rep, t.snapshot())
		zeroLayers(rep)
	}
	return rep, nil
}
