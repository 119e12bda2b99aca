// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads built from a seed — the Table I replay, live
// word-length campaigns, and the evald HTTP service — checks their
// outputs, and prints its metrics. The last line of standard output is a
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 spans
// are recorded around every call into a layer and the metrics are the
// per-layer split. See README.md for the metric table and the reasons
// behind each workload.
//
// Run from the repository root (perfbench/run.sh builds it first):
//
//	perfbench --workload replay|campaign|service --seed n --seconds s --trace 0|1
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything a run writes: the build, durable state and
// span files.
const buildDir = ".bench_build"

// A run performs its set-up at least minSetups times, and goes on while
// the repetitions so far took less than setupBudget (at most maxSetups);
// setup_s is the median, so one slow repetition does not move it, and a
// set-up of a few milliseconds is repeated often enough to be measured.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// runConfig is one invocation's parameters.
type runConfig struct {
	Seed      uint64
	Seconds   time.Duration
	Tracer    *tracer // nil for the untraced run
	StateRoot string  // where the service keeps its durable state
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: operation counts, the
// end-to-end metrics, the per-layer metrics of a traced run, and human
// readable detail lines (sample counts, check results).
type report struct {
	Attempted, Failed int
	Checks            map[string]int // failed operations by cause
	E2E               map[string]metric
	Layers            map[string]metric
	Lines             []string
}

func newReport() *report {
	return &report{Checks: map[string]int{}, E2E: map[string]metric{}, Layers: map[string]metric{}}
}

// fail counts one failed operation under cause.
func (r *report) fail(cause string) {
	r.Failed++
	r.Checks[cause]++
}

func (r *report) printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// timing records an end-to-end timing with its sample count.
func (r *report) timing(name, unit string, v float64, n int) {
	r.E2E[name] = metric{v, unit}
	r.printf("%-16s %12.4f %-5s n=%d", name, v, unit, n)
}

// p99 records the 99th-percentile latency with its sample count. It is
// printed by every run but reported as a per-layer metric, without a
// bound: on a shared two-core guest, CPU time stolen by other guests
// moved the service's p99 by up to 2.2x between runs of the same code
// while its p50 moved by 17%.
func (r *report) p99(name string, v float64, n int) {
	r.Layers[name] = metric{v, "ms"}
	r.printf("%-16s %12.4f %-5s n=%d, %d beyond it", name, v, "ms", n, beyond(n, 0.99))
}

var workloads = map[string]func(context.Context, runConfig) (*report, error){
	"replay":   runReplay,
	"campaign": runCampaign,
	"service":  runService,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: replay, campaign or service")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 15, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer split")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload replay|campaign|service --seed n --seconds s --trace 0|1")
		os.Exit(2)
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, StateRoot: buildDir}
	if *trace == 1 {
		cfg.Tracer = newTracer(*workload != "service")
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.E2E["peak_rss_mb"] = metric{rss, "MB"}
	metrics := rep.E2E
	if cfg.Tracer != nil {
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := cfg.Tracer.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.printf("spans written to %s", path)
		metrics = rep.Layers
		// The traced run's own wall time, for the tracing overhead:
		// traced trace.wall_s minus the untraced run's wall_s.
		metrics["trace.wall_s"] = rep.E2E["wall_s"]
	}
	if err := emit(os.Stdout, *workload, rep, metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// checkCheckout refuses to run outside a repository checkout, where the
// benchmark would have nothing to measure and nowhere to write.
func checkCheckout() error {
	for _, p := range []string{"go.mod", filepath.Join("internal", "evaluator")} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the root of a repository checkout: %w", err)
		}
	}
	return os.MkdirAll(buildDir, 0o755)
}

// emit prints the detail lines and, last, the JSON result line.
func emit(f *os.File, workload string, rep *report, metrics map[string]metric) error {
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", workload, rep.Attempted, rep.Failed)
	causes := make([]string, 0, len(rep.Checks))
	for c := range rep.Checks {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Fprintf(w, "  failed %-32s %d\n", c, rep.Checks[c])
	}
	for _, l := range rep.Lines {
		fmt.Fprintln(w, "  "+l)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make(map[string]metric, len(metrics))
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// JSON has no infinity; a failed request's +Inf latency
			// reads as the largest representable figure.
			m.Value = math.MaxFloat64
		}
		out[n] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, out})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

// repeatSetup runs setup repeatedly (see minSetups) and returns the last
// result with the median duration in seconds. Earlier results are handed to
// discard (servers to shut down, for example); same compares each later
// result with the first, so a set-up that does not reproduce itself is
// counted as a failed operation.
func repeatSetup[T any](rep *report, setup func() (T, error), same func(a, b T) bool, discard func(T)) (T, error) {
	var (
		first, cur T
		durs       []float64
	)
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		start := time.Now()
		v, err := setup()
		total += time.Since(start)
		durs = append(durs, time.Since(start).Seconds())
		if err != nil {
			return cur, fmt.Errorf("set-up: %w", err)
		}
		rep.Attempted++
		if i == 0 {
			first = v
		} else if !same(first, v) {
			rep.fail("setup_not_reproducible")
		}
		if i > 0 && discard != nil {
			discard(cur)
		}
		cur = v
	}
	rep.timing("setup_s", "s", median(durs), len(durs))
	return cur, nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM line")
}

// layerMetrics turns a traced run's spans into the per-layer metrics
// every traced workload reports. Layers a workload does not run report
// zero calls; workload-specific counts are filled in by the caller.
func layerMetrics(rep *report, spans []span) {
	agg := aggregate(spans)
	get := func(layer string) layerStats {
		if ls := agg[layer]; ls != nil {
			return *ls
		}
		return layerStats{}
	}
	for _, b := range []string{"fir", "iir", "fft", "hevc", "squeezenet"} {
		ls := get("sim." + b)
		mean := 0.0
		if ls.Calls > 0 {
			mean = ms(ls.Busy) / float64(ls.Calls)
		}
		rep.Layers["sim."+b+".calls"] = metric{float64(ls.Calls), "count"}
		rep.Layers["sim."+b+".busy_s"] = metric{ls.Busy.Seconds(), "s"}
		rep.Layers["sim."+b+".mean_ms"] = metric{mean, "ms"}
	}
	pred, batch := get("kriging.predict"), get("kriging.batch")
	rep.Layers["kriging.predict.calls"] = metric{float64(pred.Calls), "count"}
	rep.Layers["kriging.predict.busy_s"] = metric{pred.Busy.Seconds(), "s"}
	rep.Layers["kriging.batch.calls"] = metric{float64(batch.Calls), "count"}
	rep.Layers["kriging.batch.queries"] = metric{float64(batch.Items), "count"}
	rep.Layers["kriging.batch.busy_s"] = metric{batch.Busy.Seconds(), "s"}
	rep.Layers["kriging.failures"] = metric{float64(pred.Failed + batch.Failed), "count"}
	ev, opt := get("evaluator"), get("optim")
	rep.Layers["evaluator.self_s"] = metric{ev.Self.Seconds(), "s"}
	rep.Layers["optim.self_s"] = metric{opt.Self.Seconds(), "s"}
	var layers []string
	for l := range agg {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		ls := agg[l]
		rep.printf("span %-18s calls %7d items %7d busy %9.4fs self %9.4fs", l, ls.Calls, ls.Items, ls.Busy.Seconds(), ls.Self.Seconds())
	}
}

// zeroLayers fills the per-layer metrics a workload does not produce,
// so every traced run reports the same names.
func zeroLayers(rep *report) {
	for _, m := range []struct{ name, unit string }{
		{"kriging.live_eps_mean_bits", "bits"}, {"kriging.live_eps_p99_bits", "bits"}, {"kriging.live_eps_samples", "count"},
		{"evaluator.nsim", "count"}, {"evaluator.ninterp", "count"}, {"evaluator.mean_neighbors", "count"},
		{"evaluator.ncoalesced", "count"}, {"evaluator.nbatch_predict", "count"}, {"evaluator.nshed", "count"},
		{"store.entries", "count"}, {"store.state_bytes", "bytes"},
		{"optim.evaluations", "count"},
		{"http.evaluate.interpolated.p50_ms", "ms"}, {"http.evaluate.simulated.p50_ms", "ms"}, {"http.batch.p50_ms", "ms"},
		{"http.sent", "count"}, {"http.ok", "count"}, {"http.failed", "count"}, {"gen.late_p99_ms", "ms"},
	} {
		if _, ok := rep.Layers[m.name]; !ok {
			rep.Layers[m.name] = metric{0, m.unit}
		}
	}
}
