package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/evaluator"
	"repro/internal/httpapi"
	"repro/internal/kriging"
	"repro/internal/metrics"
	"repro/internal/optim"
	"repro/internal/space"
	"repro/internal/store"
)

// svcTenant is one API-key tenant of the service workload: it replays
// the queries of a kriged min+1 campaign at its own constraint. A batch
// tenant sends each competition round as one /v1/batch and re-runs a
// campaign the service has served before: set-up preloads that
// campaign's simulations into the durable store, so its rounds are
// answered from the store while the single-query tenants' new campaigns
// make the writes.
type svcTenant struct {
	name     string
	lambdaDB float64
	batch    bool
}

// svcTenants run at different constraints, so their trajectories share
// a prefix and then part ways. The two new campaigns sit outside the
// re-run ones, so their later phases reach configurations the store
// does not hold yet.
var svcTenants = []svcTenant{
	{"t35", -35, false},
	{"t45", -45, true},
	{"t55", -55, true},
	{"t60", -60, false},
}

// svcBench is the benchmark the service serves, at Small.
const svcBench = "hevc"

// svcRate is the open-loop arrival rate over all tenants, in requests
// per second (a batch is one request). It keeps the two connections
// lightly loaded: at 300/s, CPU time stolen by other guests on the host
// queued requests behind the writes and moved p99 by up to 2.4x between
// runs.
const svcRate = 150

// svcClientConns is the client's connection limit: no more than the
// host's two cores.
const svcClientConns = 2

// liveEpsStride selects the interpolated answers re-simulated after the
// timed phase to measure the surrogate's live error: the first answer
// for each configuration whose key hashes to 0 modulo the stride. The
// selection does not depend on the seed, so every run checks the same
// configurations wherever they were answered by kriging.
const liveEpsStride = 16

func liveEpsSelected(key string) bool {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()%liveEpsStride == 0
}

// svcRequest is one recorded request: a single query, or a whole
// competition round sent as a batch.
type svcRequest struct {
	Configs []space.Config
	Batch   bool
}

// svcStream is one tenant's recorded request sequence, the wres its
// campaign reached and the simulations it made.
type svcStream struct {
	Tenant  svcTenant
	Reqs    []svcRequest
	WRes    space.Config
	History []store.Entry
}

// recordingOracle answers a campaign's queries through an evaluator one
// at a time and records them as the tenant's requests.
type recordingOracle struct {
	ev     *evaluator.Evaluator
	stream *svcStream
}

func (o *recordingOracle) eval(ctx context.Context, cfg space.Config) (float64, error) {
	res, err := o.ev.EvaluateContext(ctx, cfg)
	return res.Lambda, err
}

func (o *recordingOracle) Evaluate(ctx context.Context, cfg space.Config) (float64, error) {
	o.stream.Reqs = append(o.stream.Reqs, svcRequest{Configs: []space.Config{cfg.Clone()}})
	return o.eval(ctx, cfg)
}

func (o *recordingOracle) EvaluateBatch(ctx context.Context, cfgs []space.Config) ([]float64, error) {
	if !o.stream.Tenant.batch {
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
	round := svcRequest{Batch: true}
	lams := make([]float64, len(cfgs))
	for i, c := range cfgs {
		round.Configs = append(round.Configs, c.Clone())
		lam, err := o.eval(ctx, c)
		if err != nil {
			return nil, err
		}
		lams[i] = lam
	}
	o.stream.Reqs = append(o.stream.Reqs, round)
	return lams, nil
}

// svcEvaluatorOptions are evald's defaults for a noise-power benchmark.
func svcEvaluatorOptions() evaluator.Options {
	return evaluator.Options{D: 3, NnMin: 1, MaxSupport: 10,
		Transform: evaluator.NegPowerToDB, Untransform: evaluator.DBToNegPower}
}

// recordStreams runs each tenant's kriged min+1 campaign in process and
// records the requests it makes.
func recordStreams(ctx context.Context, sp *bench.Spec, tenants []svcTenant) ([]svcStream, error) {
	var out []svcStream
	for _, tn := range tenants {
		sim, err := sp.NewSimulator(specSeed)
		if err != nil {
			return nil, err
		}
		ev, err := evaluator.New(sim, svcEvaluatorOptions())
		if err != nil {
			return nil, err
		}
		s := svcStream{Tenant: tn}
		res, err := optim.MinPlusOne(ctx, &recordingOracle{ev: ev, stream: &s}, optim.MinPlusOneOptions{
			LambdaMin: -math.Pow(10, tn.lambdaDB/10),
			Bounds:    sp.Bounds,
		})
		s.History = ev.Store().Entries()
		ev.Close()
		if err != nil {
			return nil, fmt.Errorf("recording tenant %s: %w", tn.name, err)
		}
		s.WRes = res.WRes
		out = append(out, s)
	}
	return out, nil
}

func sameStreams(a, b []svcStream) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Reqs) != len(b[i].Reqs) || !a[i].WRes.Equal(b[i].WRes) {
			return false
		}
		for j, r := range a[i].Reqs {
			q := b[i].Reqs[j]
			if r.Batch != q.Batch || len(r.Configs) != len(q.Configs) {
				return false
			}
			for k, c := range r.Configs {
				if !c.Equal(q.Configs[k]) {
					return false
				}
			}
		}
	}
	return true
}

// svcServer is an in-process evald: the HTTP API on a loopback listener
// over a durable evaluator.
type svcServer struct {
	url    string
	keys   []string
	dir    string
	cancel context.CancelFunc
	done   chan error
}

// startServer serves sim through httpapi with evald's defaults: durable
// state in dir, default engine admission, one API key per tenant.
func startServer(sim evaluator.Simulator, interp kriging.Interpolator, sp *bench.Spec, dir string, streams []svcStream) (*svcServer, error) {
	opts := svcEvaluatorOptions()
	opts.StateDir = dir
	opts.Interp = interp
	ev, err := evaluator.New(sim, opts)
	if err != nil {
		return nil, fmt.Errorf("opening service state: %w", err)
	}
	s := &svcServer{dir: dir, done: make(chan error, 1)}
	var ts []httpapi.Tenant
	for _, st := range streams {
		tn := st.Tenant
		if tn.batch {
			ev.Preload(st.History)
		}
		key := "key-" + tn.name
		ts = append(ts, httpapi.Tenant{Name: tn.name, Key: key})
		s.keys = append(s.keys, key)
	}
	srv := httpapi.New(httpapi.Options{
		Evaluator:      ev,
		Engine:         ev.Engine(0),
		Tenants:        ts,
		Bounds:         &sp.Bounds,
		DefaultTimeout: 60 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ev.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() { s.done <- srv.ServeListener(ctx, ln, 30*time.Second) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.shutdown()
			return nil, errors.New("service did not become ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shutdown drains the server, which closes the evaluator and syncs the
// write-ahead log, and waits for it to finish.
func (s *svcServer) shutdown() error {
	s.cancel()
	return <-s.done
}

// due is one scheduled request: the k-th request of a tenant's stream.
type due struct {
	At     time.Duration
	Tenant int
	Seq    int
}

// buildSchedule interleaves the tenants' streams by an open-loop
// Poisson schedule of the given total rate on [0, span), split evenly
// between the tenants. A tenant sends its requests in stream order and
// starts its campaign over when the stream runs out.
func buildSchedule(seed uint64, lengths []int, rate float64, span time.Duration) []due {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []due
	for j, n := range lengths {
		for k, at := range poissonArrivals(rng, rate/float64(len(lengths)), span) {
			out = append(out, due{At: at, Tenant: j, Seq: k % n})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// openLoop calls call(i) at start+at[i] on a goroutine of its own,
// whatever the earlier calls are doing, and waits for all of them. It
// returns each call's lateness (dispatch minus due time) and latency
// (completion minus due time), so a generator stall counts against the
// requests it delayed.
func openLoop(start time.Time, at []time.Duration, call func(i int)) (late, lat []time.Duration) {
	late = make([]time.Duration, len(at))
	lat = make([]time.Duration, len(at))
	var wg sync.WaitGroup
	for i, a := range at {
		dueAt := start.Add(a)
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(dueAt)
		wg.Add(1)
		go func(i int, dueAt time.Time) {
			defer wg.Done()
			call(i)
			lat[i] = time.Since(dueAt)
		}(i, dueAt)
	}
	wg.Wait()
	return late, lat
}

// answer mirrors the service's per-configuration response.
type answer struct {
	Lambda float64 `json:"lambda"`
	Source string  `json:"source"`
}

// outcome is what one request returned.
type outcome struct {
	status  int // 0: transport error
	answers []answer
	rtt     time.Duration
}

type svcClient struct {
	hc  *http.Client
	url string
	t   *tracer
}

func newSvcClient(url string, t *tracer) *svcClient {
	tr := &http.Transport{MaxConnsPerHost: svcClientConns, MaxIdleConnsPerHost: svcClientConns}
	return &svcClient{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, url: url, t: t}
}

func (c *svcClient) close() { c.hc.CloseIdleConnections() }

// send posts one request and decodes its answers.
func (c *svcClient) send(key string, r svcRequest) outcome {
	path, layer := "/v1/evaluate", "http.evaluate"
	var body any = map[string]any{"config": r.Configs[0]}
	if r.Batch {
		path, layer = "/v1/batch", "http.batch"
		body = map[string]any{"configs": r.Configs}
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return outcome{}
	}
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(buf))
	if err != nil {
		return outcome{}
	}
	req.Header.Set("Authorization", "Bearer "+key)
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	id := c.t.begin(layer)
	out := outcome{}
	resp, err := c.hc.Do(req)
	if err == nil {
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
		if rerr != nil {
			out.status = 0
		} else if out.status == http.StatusOK {
			if r.Batch {
				var br struct {
					Results []answer `json:"results"`
				}
				if json.Unmarshal(data, &br) == nil {
					out.answers = br.Results
				}
			} else {
				var a answer
				if json.Unmarshal(data, &a) == nil {
					out.answers = []answer{a}
				}
			}
		}
	}
	c.t.end(id, len(r.Configs), out.status != http.StatusOK)
	out.rtt = time.Since(start)
	return out
}

// svcStats is the part of /v1/stats the benchmark reads.
type svcStats struct {
	NSim          int     `json:"nsim"`
	NInterp       int     `json:"ninterp"`
	NCoalesced    int     `json:"ncoalesced"`
	NBatchPredict int     `json:"nbatch_predict"`
	NShed         int     `json:"nshed"`
	MeanNeighbors float64 `json:"mean_neighbors"`
	StoreLen      int     `json:"store_len"`
}

func (c *svcClient) stats(key string) (svcStats, error) {
	var st svcStats
	req, err := http.NewRequest(http.MethodGet, c.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	id := c.t.begin("http.stats")
	resp, err := c.hc.Do(req)
	c.t.end(id, 1, err != nil)
	if err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// serviceSetup is the service set-up's output: the recorded streams and
// a ready server whose durable state holds the re-run campaigns'
// simulations.
type serviceSetup struct {
	streams []svcStream
	srv     *svcServer
}

func runService(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	t := cfg.Tracer
	sp, err := bench.SpecByName(svcBench, bench.Small)
	if err != nil {
		return nil, err
	}
	stateRoot, err := os.MkdirTemp(cfg.StateRoot, "service-state-")
	if err != nil {
		return nil, fmt.Errorf("creating state directory: %w", err)
	}
	defer os.RemoveAll(stateRoot)

	n := 0
	setup, err := repeatSetup(rep, func() (serviceSetup, error) {
		streams, err := recordStreams(ctx, sp, svcTenants)
		if err != nil {
			return serviceSetup{}, err
		}
		sim, err := sp.NewSimulator(specSeed)
		if err != nil {
			return serviceSetup{}, err
		}
		interp, err := traceInterp(&kriging.Ordinary{}, t)
		if err != nil {
			return serviceSetup{}, err
		}
		n++
		srv, err := startServer(traceSim(sim, t, svcBench), interp, sp, filepath.Join(stateRoot, fmt.Sprint(n)), streams)
		return serviceSetup{streams, srv}, err
	}, func(a, b serviceSetup) bool { return sameStreams(a.streams, b.streams) },
		func(s serviceSetup) {
			if err := s.srv.shutdown(); err != nil {
				rep.fail("setup_shutdown")
			}
		})
	if err != nil {
		return nil, err
	}
	srv := setup.srv
	lengths := make([]int, len(setup.streams))
	bits := 0.0
	for i, s := range setup.streams {
		lengths[i] = len(s.Reqs)
		bits += optim.TotalBits(s.WRes)
	}
	sched := buildSchedule(cfg.Seed, lengths, svcRate, cfg.Seconds)
	at := make([]time.Duration, len(sched))
	for i, d := range sched {
		at[i] = d.At
	}

	client := newSvcClient(srv.url, t)
	defer client.close()
	outcomes := make([]outcome, len(sched))
	start := time.Now()
	late, lat := openLoop(start, at, func(i int) {
		d := sched[i]
		outcomes[i] = client.send(srv.keys[d.Tenant], setup.streams[d.Tenant].Reqs[d.Seq])
	})
	var makespan time.Duration
	for i, l := range lat {
		makespan = max(makespan, at[i]+l)
	}
	st, err := client.stats(srv.keys[0])
	if err != nil {
		srv.shutdown()
		return nil, err
	}
	if err := srv.shutdown(); err != nil {
		return nil, fmt.Errorf("draining the service: %w", err)
	}
	stateBytes, err := dirBytes(srv.dir)
	if err != nil {
		return nil, fmt.Errorf("measuring state: %w", err)
	}

	// Outside the timed phase: check every simulated answer against a
	// direct simulation on a separate simulator, and re-simulate a fixed
	// selection of interpolated answers for the live error.
	check, err := sp.NewSimulator(specSeed)
	if err != nil {
		return nil, err
	}
	truth := map[string]float64{}
	simulate := func(c space.Config) (float64, error) {
		if v, ok := truth[c.Key()]; ok {
			return v, nil
		}
		v, err := check.Evaluate(c)
		truth[c.Key()] = v
		return v, err
	}
	var (
		latMS, lateMS                   []float64
		interpMS, hitMS, simMS, batchMS []float64
		kriged                          []tracePoint
		ok, nSimAnswers, nInterpAnswers int
	)
	// The API reports an exact store hit as "simulated" too. A simulated
	// answer for a configuration the store already held (preloaded, or
	// answered earlier in the schedule) is counted as a hit, so the
	// simulated class is the write path: simulation, insert, WAL sync.
	held := map[string]bool{}
	for _, s := range setup.streams {
		if s.Tenant.batch {
			for _, e := range s.History {
				held[e.Config.Key()] = true
			}
		}
	}
	for i, o := range outcomes {
		d := sched[i]
		r := setup.streams[d.Tenant].Reqs[d.Seq]
		rep.Attempted++
		lateMS = append(lateMS, ms(late[i]))
		if o.status != http.StatusOK {
			latMS = append(latMS, math.Inf(1))
			rep.fail(fmt.Sprintf("http_status_%d", o.status))
			continue
		}
		if len(o.answers) != len(r.Configs) {
			latMS = append(latMS, math.Inf(1))
			rep.fail("answer_count_mismatch")
			continue
		}
		ok++
		latMS = append(latMS, ms(lat[i]))
		switch {
		case r.Batch:
			batchMS = append(batchMS, ms(o.rtt))
		case o.answers[0].Source == "interpolated":
			interpMS = append(interpMS, ms(o.rtt))
		case held[r.Configs[0].Key()]:
			hitMS = append(hitMS, ms(o.rtt))
		default:
			simMS = append(simMS, ms(o.rtt))
		}
		for k, a := range o.answers {
			if a.Source == "interpolated" {
				nInterpAnswers++
				kriged = append(kriged, tracePoint{r.Configs[k], a.Lambda})
				continue
			}
			held[r.Configs[k].Key()] = true
			nSimAnswers++
			rep.Attempted++
			v, err := simulate(r.Configs[k])
			if err != nil {
				return nil, fmt.Errorf("re-simulating %v: %w", r.Configs[k], err)
			}
			if math.Float64bits(v) != math.Float64bits(a.Lambda) {
				rep.fail("simulated_answer_mismatch")
			}
		}
	}
	var (
		eps    metrics.Summary
		epsAll []float64
		seen   = map[string]bool{}
	)
	for _, p := range kriged {
		key := p.cfg.Key()
		if seen[key] || !liveEpsSelected(key) {
			continue
		}
		seen[key] = true
		v, err := simulate(p.cfg)
		if err != nil {
			return nil, fmt.Errorf("re-simulating %v: %w", p.cfg, err)
		}
		e := metrics.EpsilonBits(-p.lam, -v)
		eps.Add(e)
		epsAll = append(epsAll, e)
	}

	rep.printf("tenants %d, rate %d req/s, %d requests sent (%d ok), %d simulated or exact-hit and %d interpolated answers",
		len(svcTenants), svcRate, len(sched), ok, nSimAnswers, nInterpAnswers)
	rep.printf("stream lengths %v; service nsim %d ninterp %d ncoalesced %d nbatch_predict %d nshed %d store %d, state %d bytes",
		lengths, st.NSim, st.NInterp, st.NCoalesced, st.NBatchPredict, st.NShed, st.StoreLen, stateBytes)
	rep.printf("live eps over %d re-simulated interpolated answers (%d unbounded)", eps.N(), eps.InfCount())
	rep.E2E["wall_s"] = metric{makespan.Seconds(), "s"}
	p50, cnt := quantile(latMS, 0.50)
	rep.timing("lat_p50_ms", "ms", p50, cnt)
	p99, _ := quantile(latMS, 0.99)
	rep.p99("lat_p99_ms", p99, cnt)
	rep.E2E["sims"] = metric{float64(st.NSim), "count"}
	rep.E2E["wres_bits"] = metric{bits, "bits"}
	rep.E2E["p_pct"] = metric{100 * float64(st.NInterp) / float64(st.NSim+st.NInterp), "%"}
	rep.E2E["eps_mean_bits"] = metric{eps.Mean(), "bits"}
	rep.E2E["eps_max_bits"] = metric{eps.Max(), "bits"}

	e99, en := quantile(epsAll, 0.99)
	p50of := func(xs []float64) float64 { v, _ := quantile(xs, 0.5); return v }
	late99, _ := quantile(lateMS, 0.99)
	for name, v := range map[string]metric{
		"kriging.live_eps_mean_bits":        {eps.Mean(), "bits"},
		"kriging.live_eps_p99_bits":         {e99, "bits"},
		"kriging.live_eps_samples":          {float64(en), "count"},
		"evaluator.nsim":                    {float64(st.NSim), "count"},
		"evaluator.ninterp":                 {float64(st.NInterp), "count"},
		"evaluator.mean_neighbors":          {st.MeanNeighbors, "count"},
		"evaluator.ncoalesced":              {float64(st.NCoalesced), "count"},
		"evaluator.nbatch_predict":          {float64(st.NBatchPredict), "count"},
		"evaluator.nshed":                   {float64(st.NShed), "count"},
		"store.entries":                     {float64(st.StoreLen), "count"},
		"store.state_bytes":                 {float64(stateBytes), "bytes"},
		"http.evaluate.interpolated.p50_ms": {p50of(interpMS), "ms"},
		"http.evaluate.simulated.p50_ms":    {p50of(simMS), "ms"},
		"http.batch.p50_ms":                 {p50of(batchMS), "ms"},
		"http.sent":                         {float64(len(sched)), "count"},
		"http.ok":                           {float64(ok), "count"},
		"http.failed":                       {float64(len(sched) - ok), "count"},
		"gen.late_p99_ms":                   {late99, "ms"},
	} {
		rep.Layers[name] = v
	}
	rep.printf("http round trips: interpolated n=%d, exact hit n=%d (p50 %.4f ms), simulated n=%d, batch n=%d",
		len(interpMS), len(hitMS), p50of(hitMS), len(simMS), len(batchMS))
	if t != nil {
		layerMetrics(rep, t.snapshot())
		zeroLayers(rep)
	}
	return rep, nil
}
