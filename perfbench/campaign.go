package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/metrics"
	"repro/internal/optim"
	"repro/internal/space"
)

// campaignSpec is one live optimisation of the campaign workload.
type campaignSpec struct {
	name   string
	size   bench.Size
	budget bool // optim.NoiseBudget (squeezenet) instead of min+1
}

// campaignSpecs are the paper's end use: kriged min+1 at each spec's
// λmin on the four signal benchmarks at Full, and noise budgeting on
// squeezenet at Small (60 images).
//
// The budgeting runs simulation-only, as `sensitivity -nokriging` does,
// for its first budgetSteps steps. The kriged budgeting is left out
// because the program gets it wrong: it stops at noise levels
// (28,28,28,28,25,2,0,0,0,0) that the evaluator answered with p_cl 0.933
// but that simulate to 0.85, below the 0.90 constraint, so its final
// check would fail in every run. The full simulation-only budgeting
// takes about 1,100 simulations, over a minute, longer than a run.
var campaignSpecs = []campaignSpec{
	{"fir", bench.Full, false},
	{"iir", bench.Full, false},
	{"fft", bench.Full, false},
	{"hevc", bench.Full, false},
	{"squeezenet", bench.Small, true},
}

// budgetSteps caps the squeezenet budgeting at 1 + 8×10 = 81
// simulations, about 5 s, so that a pass stays under 10 s.
const budgetSteps = 8

// epsSamplePerCampaign bounds the kriged answers of each noise-power
// campaign that are re-simulated to measure ε; they are evenly spaced
// over the campaign's kriged answers, so the sample is fixed.
const epsSamplePerCampaign = 32

// campaign is one set-up campaign: its spec and simulator.
type campaign struct {
	cs   campaignSpec
	spec *bench.Spec
	sim  evaluator.Simulator
}

// campaignResult is what one campaign run produced.
type campaignResult struct {
	final  space.Config // wres, or squeezenet's final noise levels
	lambda float64      // λ(final) as the kriging evaluator answered it
	stats  evaluator.Stats
	evals  int
	kriged []tracePoint // interpolated answers, in query order
	store  int
}

type tracePoint struct {
	cfg space.Config
	lam float64
}

// campaignOracle answers the optimiser's queries one at a time through
// Evaluator.EvaluateContext — what Evaluator.Oracle(1), the oracle of
// `wlopt -workers 1`, does — while timing each query and keeping the
// interpolated answers for the ε measurement.
type campaignOracle struct {
	ev     *evaluator.Evaluator
	t      *tracer
	latMS  *[]float64
	kriged *[]tracePoint
}

func (o *campaignOracle) Evaluate(ctx context.Context, cfg space.Config) (float64, error) {
	start := time.Now()
	id := o.t.begin("evaluator")
	res, err := o.ev.EvaluateContext(ctx, cfg)
	o.t.end(id, 1, err != nil)
	*o.latMS = append(*o.latMS, ms(time.Since(start)))
	if err != nil {
		return 0, err
	}
	if res.Source == evaluator.Interpolated {
		*o.kriged = append(*o.kriged, tracePoint{cfg.Clone(), res.Lambda})
	}
	return res.Lambda, nil
}

// EvaluateBatch evaluates a competition round sequentially, so a later
// candidate can use an earlier one's fresh simulation, as
// Evaluator.Oracle(1) does.
func (o *campaignOracle) EvaluateBatch(ctx context.Context, cfgs []space.Config) ([]float64, error) {
	lams := make([]float64, len(cfgs))
	for i, c := range cfgs {
		lam, err := o.Evaluate(ctx, c)
		if err != nil {
			return nil, err
		}
		lams[i] = lam
	}
	return lams, nil
}

// setupCampaigns builds the specs and simulators.
func setupCampaigns(specs []campaignSpec) ([]campaign, error) {
	var out []campaign
	for _, cs := range specs {
		sp, err := bench.SpecByName(cs.name, cs.size)
		if err != nil {
			return nil, err
		}
		sim, err := sp.NewSimulator(specSeed)
		if err != nil {
			return nil, fmt.Errorf("building %s simulator: %w", cs.name, err)
		}
		out = append(out, campaign{cs: cs, spec: sp, sim: sim})
	}
	return out, nil
}

// runOne runs one campaign on a fresh evaluator: for min+1, d = 3,
// NnMin = 1, MaxSupport = 10 and kriging in dB; for the budgeting, no
// kriging (see campaignSpecs).
func runOne(ctx context.Context, c campaign, t *tracer, latMS *[]float64) (campaignResult, error) {
	var opts evaluator.Options
	if !c.cs.budget {
		interp, err := traceInterp(&kriging.Ordinary{}, t)
		if err != nil {
			return campaignResult{}, err
		}
		opts = evaluator.Options{D: 3, NnMin: 1, MaxSupport: 10, Interp: interp,
			Transform: evaluator.NegPowerToDB, Untransform: evaluator.DBToNegPower}
	}
	ev, err := evaluator.New(traceSim(c.sim, t, c.cs.name), opts)
	if err != nil {
		return campaignResult{}, err
	}
	defer ev.Close()
	var res campaignResult
	oracle := &campaignOracle{ev: ev, t: t, latMS: latMS, kriged: &res.kriged}
	id := t.begin("optim")
	if c.cs.budget {
		r, err := optim.NoiseBudget(ctx, oracle, optim.NoiseBudgetOptions{LambdaMin: c.spec.LambdaMin, Bounds: c.spec.Bounds, MaxIterations: budgetSteps})
		t.end(id, 1, err != nil)
		if err != nil {
			return res, fmt.Errorf("%s campaign: %w", c.cs.name, err)
		}
		res.final, res.lambda, res.evals = r.E, r.Lambda, r.Evaluations
	} else {
		r, err := optim.MinPlusOne(ctx, oracle, optim.MinPlusOneOptions{LambdaMin: c.spec.LambdaMin, Bounds: c.spec.Bounds})
		t.end(id, 1, err != nil)
		if err != nil {
			return res, fmt.Errorf("%s campaign: %w", c.cs.name, err)
		}
		res.final, res.lambda, res.evals = r.WRes, r.Lambda, r.Evaluations
	}
	res.stats = ev.Stats()
	res.store = ev.Store().Len()
	return res, nil
}

func runCampaign(ctx context.Context, cfg runConfig) (*report, error) {
	return campaignWorkload(ctx, cfg, campaignSpecs)
}

func campaignWorkload(ctx context.Context, cfg runConfig, specs []campaignSpec) (*report, error) {
	rep := newReport()
	t := cfg.Tracer
	camps, err := repeatSetup(rep, func() ([]campaign, error) { return setupCampaigns(specs) },
		func(a, b []campaign) bool { return len(a) == len(b) }, nil)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(int64(cfg.Seed))).Perm(len(camps))

	var (
		passS []float64
		latMS []float64
		first []campaignResult
	)
	start := time.Now()
	for len(passS) == 0 || time.Since(start) < cfg.Seconds {
		results := make([]campaignResult, len(camps))
		passStart := time.Now()
		for _, i := range order {
			r, err := runOne(ctx, camps[i], t, &latMS)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		passS = append(passS, time.Since(passStart).Seconds())
		t.stop()
		for i, r := range results {
			rep.Attempted++
			if first != nil && (r.stats.NSim != first[i].stats.NSim || !r.final.Equal(first[i].final)) {
				rep.fail("campaign_differs_between_passes")
			}
		}
		if first == nil {
			first = results
		}
	}

	// Outside the timed phase: re-simulate each final configuration and
	// a fixed sample of kriged answers on separate simulators.
	var (
		nsim, ninterp, evals, sumNeigh, bits float64
		eps                                  metrics.Summary
		entries                              int
	)
	for i, c := range camps {
		r := first[i]
		check, err := c.spec.NewSimulator(specSeed)
		if err != nil {
			return nil, fmt.Errorf("building %s check simulator: %w", c.cs.name, err)
		}
		lam, err := check.Evaluate(r.final)
		rep.Attempted++
		if err != nil {
			return nil, fmt.Errorf("re-simulating %s final configuration: %w", c.cs.name, err)
		}
		if lam < c.spec.LambdaMin {
			rep.fail("final_misses_constraint")
		}
		st := r.stats
		rep.printf("campaign %-10s final %v lambda %.4g re-simulated, %.4g as answered (min %.4g) evals %d NSim %d NInterp %d p=%.2f%%",
			c.cs.name, r.final, lam, r.lambda, c.spec.LambdaMin, r.evals, st.NSim, st.NInterp, st.PercentInterpolated())
		nsim += float64(st.NSim)
		ninterp += float64(st.NInterp)
		sumNeigh += float64(st.SumNeigh)
		evals += float64(r.evals)
		entries += r.store
		if c.cs.budget {
			continue
		}
		bits += optim.TotalBits(r.final)
		for _, k := range evenSample(len(r.kriged), epsSamplePerCampaign) {
			p := r.kriged[k]
			truth, err := check.Evaluate(p.cfg)
			if err != nil {
				return nil, fmt.Errorf("re-simulating %s kriged answer: %w", c.cs.name, err)
			}
			eps.Add(metrics.EpsilonBits(-p.lam, -truth))
		}
	}
	rep.printf("passes %d; eps over %d re-simulated kriged answers (%d unbounded)", len(passS), eps.N(), eps.InfCount())
	rep.timing("wall_s", "s", median(passS), len(passS))
	p50, cnt := quantile(latMS, 0.50)
	p99, _ := quantile(latMS, 0.99)
	rep.timing("lat_p50_ms", "ms", p50, cnt)
	rep.p99("lat_p99_ms", p99, cnt)
	rep.E2E["sims"] = metric{nsim, "count"}
	rep.E2E["wres_bits"] = metric{bits, "bits"}
	rep.E2E["p_pct"] = metric{100 * ninterp / (nsim + ninterp), "%"}
	rep.E2E["eps_mean_bits"] = metric{eps.Mean(), "bits"}
	rep.E2E["eps_max_bits"] = metric{eps.Max(), "bits"}

	rep.Layers["evaluator.nsim"] = metric{nsim, "count"}
	rep.Layers["evaluator.ninterp"] = metric{ninterp, "count"}
	rep.Layers["evaluator.mean_neighbors"] = metric{sumNeigh / ninterp, "count"}
	rep.Layers["store.entries"] = metric{float64(entries), "count"}
	rep.Layers["optim.evaluations"] = metric{evals, "count"}
	if t != nil {
		layerMetrics(rep, t.snapshot())
		zeroLayers(rep)
	}
	return rep, nil
}

// evenSample returns up to k indices spread evenly over [0, n).
func evenSample(n, k int) []int {
	if n <= k {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}
