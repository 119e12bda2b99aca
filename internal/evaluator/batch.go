package evaluator

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/space"
	"repro/internal/store"
)

// EvaluateAll answers a batch of independent queries on a bounded worker
// pool: each worker runs whole queries — exact-hit lookup, interpolation
// decision, kriging, and (when needed) the simulation — so the
// simulator's latency AND the kriging linear algebra scale across cores.
// Before the workers start, a pre-pass detects batch members whose
// neighbourhood search resolves the same support and answers each such
// group through one blocked multi-RHS kriging solve (see
// BatchPredictor); answers are bit-identical to the per-query path. It
// is the background-context form of EvaluateAllContext.
//
// The batch semantics match issuing the queries one at a time EXCEPT that
// no query in the batch observes another batch member — neither as an
// exact store hit nor as kriging support: every decision runs against an
// immutable snapshot of the store taken on entry. (A configuration
// repeated inside the batch is answered once: every later occurrence
// gets the first occurrence's Result, so a distinct configuration costs
// at most one simulation at every worker count and with or without
// DisableCoalescing. A copied simulation is marked Coalesced and counted
// in NCoalesced; a copied interpolation counts as an interpolation.)
// Sequential issuing lets a later query krige from an earlier query's
// freshly stored simulation (min+1 sibling candidates sit at L1
// distance 2 from each other, inside the usual radius), so a batch can
// legitimately return different — equally valid —
// interpolations than the one-at-a-time order. Both obey the paper's
// rule of never kriging from unsimulated values; the batch is simply the
// order-free reading of Algorithm 2's competition, whose Nv candidates
// are independent increments of one incumbent.
//
// Determinism: results are indexed by input position, interpolations
// depend only on the entry snapshot, and the store absorbs the new
// simulation results in input order after the whole batch has succeeded —
// so a batch leaves the evaluator in the same state regardless of worker
// count or scheduling.
//
// Workers bounds the in-flight simulations; zero selects GOMAXPROCS. The
// Simulator must be safe for concurrent use. On failure the batch stops
// claiming further queries, the earliest (by input order) observed error
// is reported, and the store is left untouched.
func (e *Evaluator) EvaluateAll(cfgs []space.Config, workers int) ([]Result, error) {
	return e.EvaluateAllContext(context.Background(), cfgs, workers)
}

// EvaluateAllContext is EvaluateAll under a request context. Cancelling
// ctx aborts the batch promptly: workers stop claiming queries, a
// ContextSimulator is interrupted mid-simulation (a plain Simulator
// finishes its current simulation first — at most one simulation latency
// of delay), and the call returns ctx.Err(). A cancelled batch is
// discarded whole, exactly like a failed one: no store insert, no
// counter movement — even the simulator time its workers burnt is
// discarded with the batch accumulator, so the evaluator state is as if
// the batch had never been issued. (One caveat: a live caller that
// coalesced onto one of the discarded batch's simulations keeps the
// value it was served and backs it into the store, Preload-style —
// store-backed but counter-free.)
func (e *Evaluator) EvaluateAllContext(ctx context.Context, cfgs []space.Config, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]Result, len(cfgs))
	if len(cfgs) == 0 {
		return results, ctx.Err()
	}
	// Box the snapshot into the storeView interface once: handing the
	// struct value to answerFromStore per query would re-box (and
	// allocate) on every call.
	var snap storeView = e.store.Snapshot()
	var (
		simulated = make([]bool, len(cfgs))
		errs      = make([]error, len(cfgs))
		failed    atomic.Bool
		next      atomic.Int64
		wg        sync.WaitGroup
		// The batch's activity accumulates here and merges into the live
		// stats only on success, so a failed or cancelled (discarded)
		// batch cannot skew SimTime/NSim and the Eq. 2 model built on
		// them.
		batchStats counters
	)
	// Shared-support pre-pass: batch members whose neighbourhood search
	// resolves the same support (a min+1/max-1 competition round) are
	// answered through one blocked kriging solve per group before the
	// workers start; exact hits are answered too, and queries known to
	// need simulation are marked so workers skip the redundant decision.
	// Answers are bit-identical to the per-query path (the BatchPredictor
	// contract), so this changes cost, not results.
	var resolved, needsSim []bool
	if len(cfgs) > 1 {
		resolved, needsSim = e.batchPredictPrepass(ctx, snap, cfgs, results, &batchStats)
	}
	// Later occurrences of a repeated configuration are resolved from the
	// first one after the workers finish, so no worker claims them.
	first := firstOccurrences(cfgs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one query scratch for its whole run: the
			// neighbourhood buffer and interpolation inputs are reused
			// across every query the worker claims.
			qs := e.scratch.Get().(*queryScratch)
			defer e.scratch.Put(qs)
			for {
				// Once any query has failed — or the request is cancelled —
				// the whole batch's results will be discarded, so stop
				// claiming work rather than burn hours of simulation on
				// answers nobody will see.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				idx := int(next.Add(1)) - 1
				if idx >= len(cfgs) {
					return
				}
				if resolved != nil && resolved[idx] {
					continue // answered by the pre-pass
				}
				if first[idx] != idx {
					continue // copied from the first occurrence below
				}
				cfg := cfgs[idx]
				if needsSim == nil || !needsSim[idx] {
					if res, ok := e.answerFromStore(snap, cfg, &batchStats, qs); ok {
						results[idx] = res
						continue
					}
				}
				// The simulation is coalesced through the evaluator-wide
				// single-flight table (identical misses inside the batch,
				// in sibling batches, or in live sessions share one run);
				// the store insert is deferred to the batch commit below.
				lam, coalesced, err := e.simulateShared(ctx, cfg, &batchStats, nil, false)
				if err != nil {
					errs[idx] = err
					failed.Store(true)
					continue
				}
				results[idx] = Result{Lambda: lam, Source: Simulated, Coalesced: coalesced}
				simulated[idx] = true
			}
		}()
	}
	wg.Wait()
	// A dead context outranks any per-query error it induced: the caller
	// asked the batch to stop, and that is what happened.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	for idx, f := range first {
		if f == idx || (resolved != nil && resolved[idx]) {
			continue
		}
		res := results[f]
		switch {
		case simulated[f]:
			res.Coalesced = true
			batchStats.nCoalesced.Add(1)
		case res.Source == Interpolated:
			batchStats.nInterp.Add(1)
			batchStats.sumNeigh.Add(int64(res.Neighbors))
		}
		results[idx] = res
	}
	// Store updates happen once everything succeeded, in input order,
	// keeping the store contents (and NearestK tie-breaking in later
	// queries) deterministic. The whole commit goes through the bulk
	// write path: one view publication instead of one per simulation
	// result. (NSim was already charged, once per coalesced flight, at
	// simulation time; only first occurrences are marked simulated, so
	// the commit holds one entry per configuration.)
	commit := make([]store.Entry, 0, len(cfgs))
	for idx := range cfgs {
		if simulated[idx] {
			commit = append(commit, store.Entry{Config: cfgs[idx], Lambda: results[idx].Lambda})
		}
	}
	e.store.AddBatch(commit)
	if err := e.store.Err(); err != nil {
		// Durable store gone fail-stop: the commit was not persisted, so
		// the batch's simulated answers are not store-backed and must not
		// be acknowledged.
		return nil, err
	}
	e.stats.merge(&batchStats)
	return results, nil
}

// firstOccurrences maps each batch position to the position of the first
// occurrence of its configuration (itself for a first occurrence).
func firstOccurrences(cfgs []space.Config) []int {
	first := make([]int, len(cfgs))
	byHash := make(map[uint64]int, len(cfgs))
	for idx, cfg := range cfgs {
		first[idx] = idx
		h := store.HashConfig(cfg)
		j, ok := byHash[h]
		switch {
		case !ok:
			byHash[h] = idx
		case cfgs[j].Equal(cfg):
			first[idx] = j
		default:
			// Hash collision between distinct configurations: fall back
			// to a scan of the earlier first occurrences.
			for k := 0; k < idx; k++ {
				if first[k] == k && cfgs[k].Equal(cfg) {
					first[idx] = k
					break
				}
			}
		}
	}
	return first
}
