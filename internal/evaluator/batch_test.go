package evaluator

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/space"
)

// atomicSim is a concurrency-safe simulator counting invocations.
type atomicSim struct {
	calls int64
}

func (a *atomicSim) Evaluate(c space.Config) (float64, error) {
	atomic.AddInt64(&a.calls, 1)
	return 3*float64(c[0]) + 2*float64(c[1]), nil
}

func (a *atomicSim) Nv() int { return 2 }

func TestEvaluateAllMatchesSequentialValues(t *testing.T) {
	sim := &atomicSim{}
	ev, err := New(sim, Options{D: 3, NnMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []space.Config{{1, 1}, {5, 5}, {9, 9}, {13, 13}}
	results, err := ev.EvaluateAll(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want := 3*float64(cfg[0]) + 2*float64(cfg[1])
		if results[i].Lambda != want {
			t.Errorf("cfg %v: λ = %v, want %v", cfg, results[i].Lambda, want)
		}
		if results[i].Source != Simulated {
			t.Errorf("cfg %v: far-apart batch should simulate", cfg)
		}
	}
	if sim.calls != 4 {
		t.Errorf("simulator calls = %d", sim.calls)
	}
	if ev.Store().Len() != 4 {
		t.Errorf("store length %d", ev.Store().Len())
	}
}

func TestEvaluateAllInterpolatesFromEntryStore(t *testing.T) {
	sim := &atomicSim{}
	ev, err := New(sim, Options{D: 3, NnMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev.Store().Add(space.Config{4, 4}, 20)
	ev.Store().Add(space.Config{6, 6}, 30)
	results, err := ev.EvaluateAll([]space.Config{{5, 5}, {5, 6}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Source != Interpolated {
			t.Errorf("query %d simulated despite close support", i)
		}
	}
	if sim.calls != 0 {
		t.Error("simulator ran for interpolable batch")
	}
}

func TestEvaluateAllBatchMembersDoNotSupportEachOther(t *testing.T) {
	// Two adjacent configs with an empty store: both must simulate, even
	// though sequential evaluation would have kriged the second from...
	// no — sequential would also simulate both (one support is not
	// enough); use three to make the distinction real.
	sim := &atomicSim{}
	ev, err := New(sim, Options{D: 5, NnMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []space.Config{{4, 4}, {5, 5}, {6, 6}}
	results, err := ev.EvaluateAll(cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Source != Simulated {
			t.Errorf("batch member %d used batch siblings as support", i)
		}
	}
	if sim.calls != 3 {
		t.Errorf("simulator calls = %d, want 3", sim.calls)
	}
}

func TestEvaluateAllExactHits(t *testing.T) {
	sim := &atomicSim{}
	ev, _ := New(sim, Options{D: 2, NnMin: 1})
	ev.Store().Add(space.Config{2, 2}, 99)
	results, err := ev.EvaluateAll([]space.Config{{2, 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Lambda != 99 || sim.calls != 0 {
		t.Error("exact hit re-simulated in batch")
	}
}

func TestEvaluateAllPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	sim := SimulatorFunc{NumVars: 1, Fn: func(space.Config) (float64, error) { return 0, boom }}
	ev, _ := New(sim, Options{})
	if _, err := ev.EvaluateAll([]space.Config{{1}, {2}}, 2); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestEvaluateAllDefaultWorkers(t *testing.T) {
	sim := &atomicSim{}
	ev, _ := New(sim, Options{})
	if _, err := ev.EvaluateAll([]space.Config{{1, 1}, {9, 9}}, 0); err != nil {
		t.Fatal(err)
	}
	if sim.calls != 2 {
		t.Error("default worker count failed")
	}
}

func TestEvaluateAllEmptyBatch(t *testing.T) {
	ev, _ := New(&atomicSim{}, Options{})
	results, err := ev.EvaluateAll(nil, 4)
	if err != nil || len(results) != 0 {
		t.Errorf("empty batch: %v, %v", results, err)
	}
}

// TestEvaluateAllRepeatsSimulateOnce checks that a configuration
// repeated inside one batch costs exactly one simulation and one store
// entry at every worker count, with or without DisableCoalescing: later
// occurrences carry the first one's value, marked Coalesced.
func TestEvaluateAllRepeatsSimulateOnce(t *testing.T) {
	cfgs := []space.Config{{1, 1}, {2, 2}, {1, 1}, {3, 3}, {2, 2}, {1, 1}}
	firsts := map[int]bool{0: true, 1: true, 3: true}
	for _, disable := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			sim := &atomicSim{}
			ev, err := New(sim, Options{DisableCoalescing: disable})
			if err != nil {
				t.Fatal(err)
			}
			results, err := ev.EvaluateAll(cfgs, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				want := Result{Lambda: 3*float64(cfgs[i][0]) + 2*float64(cfgs[i][1]), Source: Simulated, Coalesced: !firsts[i]}
				if res != want {
					t.Errorf("disable=%v workers=%d cfg %d: %+v, want %+v", disable, workers, i, res, want)
				}
			}
			st := ev.Stats()
			if sim.calls != 3 || st.NSim != 3 || st.NCoalesced != 3 {
				t.Errorf("disable=%v workers=%d: calls=%d NSim=%d NCoalesced=%d, want 3/3/3",
					disable, workers, sim.calls, st.NSim, st.NCoalesced)
			}
			if n, v := ev.Store().Len(), ev.Store().Versions(); n != 3 || v != 3 {
				t.Errorf("disable=%v workers=%d: store Len=%d Versions=%d, want one entry per configuration",
					disable, workers, n, v)
			}
		}
	}
}
