package simpool_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/evaluator"
	"repro/internal/simpool"
	"repro/internal/space"
)

// The fault-injection sweep, in the spirit of the store's torture rig:
// every worker in the pool is wrapped in a fault layer that randomly
// drops connections, stalls, returns 500s, or dies mid-response (the
// torn-body signature of a kill -9), and a batch must STILL complete
// with exact results, exactly one simulation counted per config, and
// exactly one store insert per config.

// sleepSim builds the deterministic reference simulator shared by the
// workers and the local oracle.
func sleepSim(seed uint64) *bench.SleepSimulator {
	return &bench.SleepSimulator{NumVars: 3, Latency: 0, Seed: seed}
}

// sleepLambda is the local oracle for the expected λ of cfg.
func sleepLambda(t testing.TB, seed uint64, cfg space.Config) float64 {
	t.Helper()
	lam, err := sleepSim(seed).Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lam
}

// faultKind is one injected failure mode.
type faultKind int

const (
	faultNone  faultKind = iota
	fault500             // worker answers 500
	faultDrop            // connection closed before any response bytes
	faultTorn            // response head + partial body, then the conn dies
	faultStall           // 20ms delay, then a normal answer
)

// flakyWorker wraps a Worker handler with seeded random fault
// injection on the simulate route (health probes pass through, so the
// pool can readmit the worker after each quarantine).
type flakyWorker struct {
	inner http.Handler
	mu    sync.Mutex
	rng   *rand.Rand
	// prob is the per-request probability of injecting each fault kind
	// (uniformly split across the four kinds).
	prob float64
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		f.inner.ServeHTTP(w, r)
		return
	}
	f.mu.Lock()
	roll := f.rng.Float64()
	pick := f.rng.Intn(4)
	f.mu.Unlock()
	kind := faultNone
	if roll < f.prob {
		kind = faultKind(pick + 1)
	}
	switch kind {
	case fault500:
		http.Error(w, "injected 500", http.StatusInternalServerError)
	case faultDrop:
		hijackAndClose(w, nil)
	case faultTorn:
		// Promise 4096 body bytes, deliver 10, die: exactly what a
		// worker killed mid-response looks like to the client.
		hijackAndClose(w, []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"lambda\""))
	case faultStall:
		time.Sleep(20 * time.Millisecond)
		f.inner.ServeHTTP(w, r)
	default:
		f.inner.ServeHTTP(w, r)
	}
}

func hijackAndClose(w http.ResponseWriter, head []byte) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server does not support hijacking")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	if len(head) > 0 {
		_, _ = conn.Write(head)
	}
	// A hard close (no TLS/keepalive teardown) so the client sees the
	// abrupt EOF a killed process produces.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = conn.Close()
}

// startFlakyPool boots n flaky workers over the sleep simulator and a
// pool sized to survive the chaos.
func startFlakyPool(t *testing.T, n int, seed uint64, prob float64, faultSeed int64) *simpool.Pool {
	t.Helper()
	specs := make([]simpool.WorkerSpec, n)
	for i := 0; i < n; i++ {
		w := simpool.NewWorker(simpool.WorkerOptions{Sim: sleepSim(seed), Capacity: 4})
		srv := httptest.NewServer(&flakyWorker{
			inner: w.Handler(),
			rng:   rand.New(rand.NewSource(faultSeed + int64(i))),
			prob:  prob,
		})
		t.Cleanup(srv.Close)
		specs[i] = simpool.WorkerSpec{URL: srv.URL}
	}
	p, err := simpool.NewPool(simpool.Options{
		Workers:      specs,
		Nv:           3,
		PerWorkerCap: 4,
		// Fast recovery loop: the sweep's point is surviving repeated
		// quarantines, not waiting out production backoffs.
		RetryBase: time.Millisecond,
		RetryMax:  10 * time.Millisecond,
		ProbeBase: 2 * time.Millisecond,
		ProbeMax:  20 * time.Millisecond,
		// Generous budget: with every worker flaky, a config may need to
		// outlive several all-quarantined windows.
		MaxAttempts: 200,
		HedgeDelay:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// sweepConfigs builds n distinct (colliding-free) configurations.
func sweepConfigs(n int) []space.Config {
	cfgs := make([]space.Config, n)
	for i := range cfgs {
		cfgs[i] = space.Config{2 + i%15, 2 + (i/15)%15, 2 + (i/225)%15}
	}
	return cfgs
}

// TestFaultInjectionSweep runs a batch through an all-flaky pool under
// several fault schedules and demands perfection anyway: every λ exact,
// NSim exact, store inserts exact.
func TestFaultInjectionSweep(t *testing.T) {
	const seed = 42
	for _, faultSeed := range []int64{1, 7, 1234} {
		faultSeed := faultSeed
		t.Run(fmt.Sprintf("faults=%d", faultSeed), func(t *testing.T) {
			t.Parallel()
			pool := startFlakyPool(t, 3, seed, 0.4, faultSeed)
			ev, err := evaluator.New(pool, evaluator.Options{}) // D=0: every query simulates
			if err != nil {
				t.Fatal(err)
			}
			cfgs := sweepConfigs(32)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			results, err := ev.EvaluateAllContext(ctx, cfgs, 8)
			if err != nil {
				t.Fatalf("batch failed under fault injection: %v", err)
			}
			for i, res := range results {
				if want := sleepLambda(t, seed, cfgs[i]); res.Lambda != want {
					t.Fatalf("cfg %v: lambda = %v, want %v", cfgs[i], res.Lambda, want)
				}
			}
			if st := ev.Stats(); st.NSim != len(cfgs) {
				t.Fatalf("NSim = %d, want exactly %d", st.NSim, len(cfgs))
			}
			if got := ev.Store().Len(); got != len(cfgs) {
				t.Fatalf("store has %d entries, want exactly %d (no duplicate inserts)", got, len(cfgs))
			}
		})
	}
}

// TestFaultSweepSingleFlight repeats the sweep with colliding queries:
// a batch answers each repeated config from its first occurrence, so
// retries/hedges below the evaluator never multiply simulations or
// store inserts.
func TestFaultSweepSingleFlight(t *testing.T) {
	const seed = 42
	pool := startFlakyPool(t, 3, seed, 0.3, 99)
	ev, err := evaluator.New(pool, evaluator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	distinct := sweepConfigs(8)
	cfgs := make([]space.Config, 0, 48)
	for i := 0; i < 48; i++ {
		cfgs = append(cfgs, distinct[i%len(distinct)])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := ev.EvaluateAllContext(ctx, cfgs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if want := sleepLambda(t, seed, cfgs[i]); res.Lambda != want {
			t.Fatalf("cfg %v: lambda = %v, want %v", cfgs[i], res.Lambda, want)
		}
	}
	if got := ev.Store().Len(); got != len(distinct) {
		t.Fatalf("store has %d entries, want exactly %d", got, len(distinct))
	}
	if st := ev.Stats(); st.NSim != len(distinct) || st.NCoalesced != len(cfgs)-len(distinct) {
		t.Fatalf("NSim = %d, NCoalesced = %d; want %d and %d", st.NSim, st.NCoalesced, len(distinct), len(cfgs)-len(distinct))
	}
}

// TestRemoteLambdaSurvivesJSON pins the wire format: λ crosses HTTP as
// JSON, and the sweep's exact-equality asserts only mean something if
// encoding/json round-trips every float64 we produce bit-for-bit.
func TestRemoteLambdaSurvivesJSON(t *testing.T) {
	w := simpool.NewWorker(simpool.WorkerOptions{Sim: sleepSim(7)})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	p, err := simpool.NewPool(simpool.Options{Workers: []simpool.WorkerSpec{{URL: srv.URL}}, Nv: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, cfg := range sweepConfigs(64) {
		want := sleepLambda(t, 7, cfg)
		got, err := p.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cfg %v: remote λ %x != local λ %x", cfg, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
