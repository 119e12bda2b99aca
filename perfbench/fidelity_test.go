package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/space"
)

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(true)
	for _, in := range []kriging.Interpolator{&kriging.Ordinary{}, &kriging.IDW{}} {
		w, err := traceInterp(in, tr)
		if err != nil {
			t.Fatal(err)
		}
		for name, has := range map[string]func(any) bool{
			"BatchPredictor":         func(v any) bool { _, ok := v.(evaluator.BatchPredictor); return ok },
			"VariancePredictor":      func(v any) bool { _, ok := v.(evaluator.VariancePredictor); return ok },
			"BatchVariancePredictor": func(v any) bool { _, ok := v.(evaluator.BatchVariancePredictor); return ok },
		} {
			if has(in) != has(w) {
				t.Errorf("%s: wrapper implements %s = %v, inner = %v", in.Name(), name, has(w), has(in))
			}
		}
	}
	if _, err := traceInterp(&kriging.Simple{}, tr); err == nil {
		t.Error("an interpolator with only some optional faces was wrapped without complaint")
	}

	plain := evaluator.SimulatorFunc{NumVars: 1, Fn: func(space.Config) (float64, error) { return 1, nil }}
	withCtx := evaluator.ContextSimulatorFunc{NumVars: 1, Fn: func(context.Context, space.Config) (float64, error) { return 1, nil }}
	if _, ok := traceSim(plain, tr, "x").(evaluator.ContextSimulator); ok {
		t.Error("a plain simulator gained EvaluateContext")
	}
	if _, ok := traceSim(withCtx, tr, "x").(evaluator.ContextSimulator); !ok {
		t.Error("the wrapper hid EvaluateContext")
	}
	if _, wrapped := traceSim(plain, nil, "x").(*tracedSim); wrapped {
		t.Error("an untraced run wrapped its simulator")
	}
}

// deterministic returns the lines and metrics of a report that must not
// depend on tracing.
func deterministic(rep *report, prefixes []string, names []string) (lines []string, values []float64) {
	for _, l := range rep.Lines {
		for _, p := range prefixes {
			if strings.HasPrefix(l, p) {
				lines = append(lines, l)
			}
		}
	}
	for _, n := range names {
		values = append(values, rep.E2E[n].Value)
	}
	return lines, values
}

func runBoth(t *testing.T, run func(cfg runConfig) (*report, error)) (untraced, traced *report) {
	t.Helper()
	for _, tr := range []*tracer{nil, newTracer(true)} {
		rep, err := run(runConfig{Seed: 3, Seconds: time.Second, Tracer: tr, StateRoot: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil {
			untraced = rep
		} else {
			traced = rep
		}
	}
	return untraced, traced
}

func TestTracedRunsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads twice")
	}
	ctx := context.Background()

	t.Run("replay", func(t *testing.T) {
		u, tr := runBoth(t, func(cfg runConfig) (*report, error) {
			return replayWorkload(ctx, cfg, []string{"fir", "iir", "fft"})
		})
		names := []string{"sims", "p_pct", "eps_mean_bits", "eps_max_bits", "wres_bits"}
		ul, uv := deterministic(u, []string{"row "}, names)
		tl, tv := deterministic(tr, []string{"row "}, names)
		if len(ul) != 12 || strings.Join(ul, "\n") != strings.Join(tl, "\n") {
			t.Errorf("replay rows differ:\nuntraced:\n%s\ntraced:\n%s", strings.Join(ul, "\n"), strings.Join(tl, "\n"))
		}
		for i := range uv {
			if uv[i] != tv[i] {
				t.Errorf("%s: untraced %v, traced %v", names[i], uv[i], tv[i])
			}
		}
		if tr.Layers["kriging.predict.calls"].Value == 0 || tr.Layers["sim.fft.calls"].Value == 0 {
			t.Error("the traced replay recorded no kriging or simulator spans")
		}
		if u.Failed != 0 || tr.Failed != 0 {
			t.Errorf("failed operations: untraced %d, traced %d", u.Failed, tr.Failed)
		}
	})

	t.Run("campaign", func(t *testing.T) {
		specs := []campaignSpec{{"fir", bench.Full, false}, {"iir", bench.Full, false}}
		u, tr := runBoth(t, func(cfg runConfig) (*report, error) { return campaignWorkload(ctx, cfg, specs) })
		names := []string{"sims", "wres_bits", "p_pct", "eps_mean_bits", "eps_max_bits"}
		ul, uv := deterministic(u, []string{"campaign "}, names)
		tl, tv := deterministic(tr, []string{"campaign "}, names)
		if strings.Join(ul, "\n") != strings.Join(tl, "\n") {
			t.Errorf("campaigns differ:\nuntraced:\n%s\ntraced:\n%s", strings.Join(ul, "\n"), strings.Join(tl, "\n"))
		}
		for i := range uv {
			if uv[i] != tv[i] {
				t.Errorf("%s: untraced %v, traced %v", names[i], uv[i], tv[i])
			}
		}
		if tr.Layers["optim.self_s"].Value <= 0 || tr.Layers["sim.iir.calls"].Value == 0 {
			t.Error("the traced campaign recorded no optimiser or simulator spans")
		}
	})

	t.Run("service", func(t *testing.T) {
		u, tr := runBoth(t, func(cfg runConfig) (*report, error) {
			cfg.Seconds = 8 * time.Second
			return runService(ctx, cfg)
		})
		for name, rep := range map[string]*report{"untraced": u, "traced": tr} {
			if rep.Failed != 0 {
				t.Errorf("%s: %d failed operations %v", name, rep.Failed, rep.Checks)
			}
			if rep.Layers["evaluator.nbatch_predict"].Value == 0 {
				t.Errorf("%s: no query went through the blocked batch predict", name)
			}
		}
		if tr.Layers["kriging.batch.queries"].Value == 0 || tr.Layers["http.sent"].Value == 0 {
			t.Error("the traced service recorded no batch-predict or HTTP spans")
		}
	})
}
