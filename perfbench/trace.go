package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/space"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into a layer's public surface.
type span struct {
	Layer  string        `json:"layer"`
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"` // -1: a root, or unknown (concurrent workloads)
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	N      int           `json:"n"` // work items: 1, or the queries of a batch predict
	Failed bool          `json:"failed,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. In nested mode the
// workload makes every call from one goroutine, so the innermost open
// span is the parent of a new one; in concurrent mode (the service) calls
// arrive on server goroutines the benchmark cannot tie to a request, and
// every span is a root. A nil *tracer records nothing.
type tracer struct {
	t0     time.Time
	nested bool

	mu    sync.Mutex
	on    bool
	spans []span
	open  []int32
}

func newTracer(nested bool) *tracer {
	return &tracer{t0: time.Now(), nested: nested, on: true}
}

// begin opens a span and returns its id, or -1 when not recording.
func (t *tracer) begin(layer string) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if t.nested {
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		t.open = append(t.open, id)
	}
	t.spans = append(t.spans, span{Layer: layer, ID: id, Parent: parent, Start: now, End: -1, N: 1})
	return id
}

// end closes span id, recording its work items and whether it failed.
func (t *tracer) end(id int32, n int, failed bool) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.N, s.Failed = now, n, failed
	if t.nested {
		if k := len(t.open); k > 0 && t.open[k-1] == id {
			t.open = t.open[:k-1]
		}
	}
}

// stop ends recording; spans already open still close normally.
func (t *tracer) stop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = false
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far (End is -1 while a
// span is open).
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerStats aggregates the spans of one layer.
type layerStats struct {
	Calls  int
	Items  int
	Failed int
	Busy   time.Duration // summed span durations
	Self   time.Duration // summed durations minus the time child spans cover
}

// aggregate sums spans per layer. A span's self time is its duration
// minus the union of its children's intervals clipped to it, so it is
// never negative even if children overlap each other or outlast the
// parent.
func aggregate(spans []span) map[string]*layerStats {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerStats)
	for _, s := range spans {
		ls := out[s.Layer]
		if ls == nil {
			ls = &layerStats{}
			out[s.Layer] = ls
		}
		ls.Calls++
		ls.Items += s.N
		if s.Failed {
			ls.Failed++
		}
		ls.Busy += s.dur()
		ls.Self += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// tracedSim records a span around every simulation.
type tracedSim struct {
	inner evaluator.Simulator
	t     *tracer
	layer string
}

func (s *tracedSim) Evaluate(cfg space.Config) (float64, error) {
	id := s.t.begin(s.layer)
	v, err := s.inner.Evaluate(cfg)
	s.t.end(id, 1, err != nil)
	return v, err
}

func (s *tracedSim) Nv() int { return s.inner.Nv() }

// tracedCtxSim forwards EvaluateContext, so the evaluator keeps
// cancelling simulations mid-run exactly as it does unwrapped.
type tracedCtxSim struct {
	tracedSim
	ctxInner evaluator.ContextSimulator
}

func (s *tracedCtxSim) EvaluateContext(ctx context.Context, cfg space.Config) (float64, error) {
	id := s.t.begin(s.layer)
	v, err := s.ctxInner.EvaluateContext(ctx, cfg)
	s.t.end(id, 1, err != nil)
	return v, err
}

// traceSim wraps sim for the layer "sim.<bench>"; with a nil tracer it
// returns sim itself, so untraced runs execute the unwrapped program.
func traceSim(sim evaluator.Simulator, t *tracer, bench string) evaluator.Simulator {
	if t == nil {
		return sim
	}
	base := tracedSim{inner: sim, t: t, layer: "sim." + bench}
	if cs, ok := sim.(evaluator.ContextSimulator); ok {
		return &tracedCtxSim{tracedSim: base, ctxInner: cs}
	}
	return &base
}

// tracedInterp records a span around every single-query prediction.
type tracedInterp struct {
	inner kriging.Interpolator
	t     *tracer
}

func (k *tracedInterp) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	id := k.t.begin("kriging.predict")
	v, err := k.inner.Predict(xs, ys, x)
	k.t.end(id, 1, err != nil)
	return v, err
}

func (k *tracedInterp) Name() string { return k.inner.Name() }

// fullKriging is an interpolator with every optional face the evaluator
// looks for (kriging.Ordinary is one).
type fullKriging interface {
	kriging.Interpolator
	evaluator.BatchPredictor
	evaluator.VariancePredictor
	evaluator.BatchVariancePredictor
}

// tracedKriging forwards the batch and variance faces: hiding
// BatchPredictor would silently switch off the evaluator's blocked batch
// path and measure a different program.
type tracedKriging struct {
	tracedInterp
	full fullKriging
}

func (k *tracedKriging) PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error {
	id := k.t.begin("kriging.batch")
	err := k.full.PredictBatch(xs, ys, queries, out)
	k.t.end(id, len(queries), err != nil)
	return err
}

func (k *tracedKriging) PredictVar(xs [][]float64, ys []float64, x []float64) (float64, float64, error) {
	id := k.t.begin("kriging.predict")
	v, variance, err := k.full.PredictVar(xs, ys, x)
	k.t.end(id, 1, err != nil)
	return v, variance, err
}

func (k *tracedKriging) PredictVarBatch(xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error {
	id := k.t.begin("kriging.batch")
	err := k.full.PredictVarBatch(xs, ys, queries, outVal, outVar)
	k.t.end(id, len(queries), err != nil)
	return err
}

// traceInterp wraps in so that the wrapper implements exactly the
// optional interfaces in does. With a nil tracer it returns in itself.
func traceInterp(in kriging.Interpolator, t *tracer) (kriging.Interpolator, error) {
	if t == nil {
		return in, nil
	}
	base := tracedInterp{inner: in, t: t}
	if full, ok := in.(fullKriging); ok {
		return &tracedKriging{tracedInterp: base, full: full}, nil
	}
	_, b := in.(evaluator.BatchPredictor)
	_, v := in.(evaluator.VariancePredictor)
	_, bv := in.(evaluator.BatchVariancePredictor)
	if b || v || bv {
		return nil, fmt.Errorf("tracing %s: cannot forward a partial set of optional interfaces", in.Name())
	}
	return &base, nil
}
