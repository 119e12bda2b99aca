package main

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
)

func TestQuantileReportsSampleCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		v, n := quantile(xs, tc.q)
		if v != tc.want || n != len(xs) {
			t.Errorf("quantile(q=%v) = %v, n=%d; want %v, n=%d", tc.q, v, n, tc.want, len(xs))
		}
	}
	if v, n := quantile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("empty sample: got %v, n=%d", v, n)
	}
	// A failed request's +Inf sorts last and is counted.
	v, n := quantile([]float64{1, math.Inf(1), 2}, 1)
	if !math.IsInf(v, 1) || n != 3 {
		t.Errorf("+Inf sample: got %v, n=%d", v, n)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestScheduleIsReproducible(t *testing.T) {
	lengths := []int{50, 7, 30}
	a := buildSchedule(7, lengths, 300, 2*time.Second)
	b := buildSchedule(7, lengths, 300, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := buildSchedule(8, lengths, 300, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Roughly rate × span arrivals, in time order, each tenant walking
	// its stream in order and starting over at its end.
	if len(a) < 450 || len(a) > 750 {
		t.Errorf("%d arrivals, want about 600", len(a))
	}
	next := make([]int, len(lengths))
	for i, d := range a {
		if i > 0 && d.At < a[i-1].At {
			t.Fatalf("arrival %d out of order", i)
		}
		if d.At < 0 || d.At >= 2*time.Second {
			t.Fatalf("arrival at %v outside the span", d.At)
		}
		if d.Seq != next[d.Tenant] {
			t.Fatalf("tenant %d sent request %d, want %d", d.Tenant, d.Seq, next[d.Tenant])
		}
		next[d.Tenant] = (next[d.Tenant] + 1) % lengths[d.Tenant]
	}
}

func TestRequestStreamIsReproducible(t *testing.T) {
	sp, err := bench.SpecByName("fft", bench.Small)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []svcTenant{{"a", -35, false}, {"b", -45, true}}
	a, err := recordStreams(context.Background(), sp, tenants)
	if err != nil {
		t.Fatal(err)
	}
	b, err := recordStreams(context.Background(), sp, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStreams(a, b) {
		t.Fatal("recording the same campaigns twice gave different streams")
	}
	batches := 0
	for _, r := range a[1].Reqs {
		if r.Batch {
			batches++
			if len(r.Configs) < 2 {
				t.Errorf("a batch round with %d configurations", len(r.Configs))
			}
		}
	}
	if batches == 0 {
		t.Error("the batch tenant sent no batch")
	}
	for _, r := range a[0].Reqs {
		if r.Batch || len(r.Configs) != 1 {
			t.Fatal("the single-query tenant sent a batch")
		}
	}
	b[0].Reqs[len(b[0].Reqs)-1].Configs[0][0]++
	if sameStreams(a, b) {
		t.Error("sameStreams missed a changed configuration")
	}
}

func TestLatencyFromDueTimeIncludesGeneratorLateness(t *testing.T) {
	// The generator starts 50ms behind schedule: the request is sent late
	// and its latency counts the delay as well as its own 5ms.
	start := time.Now().Add(-50 * time.Millisecond)
	late, lat := openLoop(start, []time.Duration{0}, func(int) { time.Sleep(5 * time.Millisecond) })
	if late[0] < 50*time.Millisecond {
		t.Errorf("lateness %v, want at least 50ms", late[0])
	}
	if lat[0] < late[0]+5*time.Millisecond {
		t.Errorf("latency %v does not include lateness %v plus the 5ms call", lat[0], late[0])
	}

	// Three requests due together on a server that takes one at a time:
	// the last one waits for the other two, and its latency shows it.
	var mu sync.Mutex
	_, lat = openLoop(time.Now(), []time.Duration{0, 0, 0}, func(int) {
		mu.Lock()
		defer mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	})
	worst := max(lat[0], lat[1], lat[2])
	if worst < 30*time.Millisecond {
		t.Errorf("slowest of three serialised requests took %v from its due time, want at least 30ms", worst)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	ms := time.Millisecond
	// Children that overlap each other and outlast their parent cover at
	// most the parent's own interval.
	spans := []span{
		{Layer: "evaluator", ID: 0, Parent: -1, Start: 0, End: 10 * ms},
		{Layer: "kriging.predict", ID: 1, Parent: 0, Start: 2 * ms, End: 6 * ms},
		{Layer: "kriging.predict", ID: 2, Parent: 0, Start: 4 * ms, End: 15 * ms},
	}
	agg := aggregate(spans)
	if got := agg["evaluator"].Self; got != 2*ms {
		t.Errorf("evaluator self %v, want 2ms", got)
	}
	if got := agg["kriging.predict"].Busy; got != 15*ms {
		t.Errorf("kriging busy %v, want 15ms", got)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var spans []span
		for i := 0; i < 20; i++ {
			start := time.Duration(rng.Intn(100))
			s := span{Layer: []string{"a", "b", "c"}[rng.Intn(3)], ID: int32(i), Parent: -1,
				Start: start, End: start + time.Duration(rng.Intn(50))}
			if i > 0 && rng.Intn(4) > 0 {
				s.Parent = int32(rng.Intn(i))
			}
			spans = append(spans, s)
		}
		for l, ls := range aggregate(spans) {
			if ls.Self < 0 || ls.Self > ls.Busy {
				t.Fatalf("trial %d layer %s: self %v outside [0, busy %v]", trial, l, ls.Self, ls.Busy)
			}
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(true)
	outer := tr.begin("optim")
	inner := tr.begin("evaluator")
	tr.end(inner, 1, false)
	tr.end(outer, 1, false)
	tr.stop()
	if id := tr.begin("evaluator"); id != -1 {
		t.Errorf("a stopped tracer opened span %d", id)
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Parent != -1 {
		t.Fatalf("spans %+v: want evaluator nested in optim", spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x"), 1, false) // must not panic
}
