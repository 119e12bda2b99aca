package bench

import (
	"context"
	"testing"

	"repro/internal/evaluator"
	"repro/internal/optim"
	"repro/internal/space"
)

// TestDeterministicTable verifies the headline reproducibility claim:
// the same seed regenerates bit-identical Table I rows.
func TestDeterministicTable(t *testing.T) {
	sp1, err := NewFIRSpec(Small)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunBenchmark(context.Background(), sp1, Table1Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := NewFIRSpec(Small)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBenchmark(context.Background(), sp2, Table1Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if RenderTable1([]*BenchmarkResult{r1}) != RenderTable1([]*BenchmarkResult{r2}) {
		t.Error("same seed produced different tables")
	}
	sp3, _ := NewFIRSpec(Small)
	r3, err := RunBenchmark(context.Background(), sp3, Table1Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if RenderTable1([]*BenchmarkResult{r1}) == RenderTable1([]*BenchmarkResult{r3}) {
		t.Error("different seeds produced identical tables (suspicious)")
	}
}

// TestIIRTableShape is the IIR integration test: record + replay and
// check the Table I shape properties the paper reports for Nv = 5.
func TestIIRTableShape(t *testing.T) {
	sp, err := NewIIRSpec(Small)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmark(context.Background(), sp, Table1Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// More variables than the FIR => more interpolation at the same d.
	fir := getFIRResult(t)
	if res.Rows[0].Percent <= fir.Rows[0].Percent {
		t.Errorf("IIR p%%(d=2) = %v not above FIR %v", res.Rows[0].Percent, fir.Rows[0].Percent)
	}
	for _, row := range res.Rows {
		if row.NInterp > 0 && row.MeanEps > 2 {
			t.Errorf("d=%v: mean ε = %v bits", row.D, row.MeanEps)
		}
	}
}

// TestLiveOptimisationWithKriging runs the full live loop (not a replay):
// min+1 on the FIR with the kriging evaluator, verifying the solution
// against the plain simulator.
func TestLiveOptimisationWithKriging(t *testing.T) {
	sp, err := NewFIRSpec(Small)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sp.NewSimulator(1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := evaluator.New(sim, evaluator.Options{
		D: 3, NnMin: 1, MaxSupport: 10,
		Transform:   evaluator.NegPowerToDB,
		Untransform: evaluator.DBToNegPower,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := optim.OracleFunc(func(cfg space.Config) (float64, error) {
		r, err := ev.Evaluate(cfg)
		if err != nil {
			return 0, err
		}
		return r.Lambda, nil
	})
	res, err := optim.MinPlusOne(context.Background(), oracle, optim.MinPlusOneOptions{
		LambdaMin: sp.LambdaMin,
		Bounds:    sp.Bounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stats().NInterp == 0 {
		t.Error("kriging never engaged")
	}
	// The solution must satisfy the constraint under true simulation
	// within a 1-bit interpolation slack (kriged decisions can be off).
	truth, err := sim.Evaluate(res.WRes)
	if err != nil {
		t.Fatal(err)
	}
	if truth < sp.LambdaMin*4 {
		t.Errorf("solution %v has true λ = %v, constraint %v", res.WRes, truth, sp.LambdaMin)
	}
}

// TestSqueezeNetReplaySmoke keeps the fifth benchmark wired end-to-end in
// the test suite: it records the Small trajectory and replays it at two
// distances.
func TestSqueezeNetReplaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("squeezenet recording is slow")
	}
	sp, err := NewSqueezeNetSpec(Small)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sp.Record(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 20 {
		t.Fatalf("trajectory too short: %d", len(trace))
	}
	res, err := ReplayTrace(sp, trace, Table1Options{Distances: []float64{2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Percent <= 0 {
			t.Errorf("d=%v: nothing interpolated", row.D)
		}
		if row.MeanEps > 0.3 {
			t.Errorf("d=%v: mean relative ε = %v", row.D, row.MeanEps)
		}
	}
}
