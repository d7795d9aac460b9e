package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"bfpp/internal/analytic"
	"bfpp/internal/core"
	"bfpp/internal/cost"
	"bfpp/internal/engine"
	"bfpp/internal/memsim"
	"bfpp/internal/schedule"
	"bfpp/internal/search"
	"bfpp/internal/service"
	"bfpp/internal/store"
)

// searchTrace is the state of a search workload's traced run: the spans,
// the server, an in-process service and scratch store to call, and the
// exact counts and allocation deltas summed over the traced cold ops.
type searchTrace struct {
	tr     *tracer
	srv    *server
	inproc *service.Service
	st     *store.File
	jr     *store.Journal

	cold                                      int
	groups                                    int64
	enumerated, dominated, boundedOut         int64
	flooredOut, replayPriced, simulated, warm int64
	famSimulated, famReplay                   map[string]int64
	keys                                      map[schedule.Key]bool
	replayCalls, replayMallocs                uint64
	simCalls, simMallocs                      uint64
	hitCalls, hitMallocs                      uint64
	coldBytes                                 uint64
	coldPause, httpHit                        time.Duration
	appends                                   int64
}

// journalEntry mirrors the service's sweep checkpoint record, so the
// scratch journal appends what the server's does.
type journalEntry struct {
	Key  search.GroupKey `json:"key"`
	Best search.Best     `json:"best"`
}

// traceSearch is the traced run of a search workload. It replays a fixed
// prefix of the op list, one op at a time: each op goes to the server as
// in the timed loop, and after each cold op the benchmark calls every
// search-path layer in process on that op's inputs, recording a span per
// call. The counts it reports repeat exactly for a seed.
func traceSearch(ctx context.Context, cfg config, w *searchWorkload, ops []searchOp) (outcome, error) {
	out := outcome{values: map[string]float64{}, layers: map[string]bool{}}
	for _, l := range []string{"search", "analytic", "engine", "parallel", "schedule", "memsim", "cost", "service", "http", "store", "process"} {
		out.layers[l] = true
	}
	srv, setups, err := setupServers(ctx, cfg, w, 1)
	if err != nil {
		return out, err
	}
	defer srv.stop()
	// Warm this process' memo caches the way the warm pass warmed the
	// server's, so the in-process calls run in the same state.
	for _, req := range w.warmRequests() {
		r, err := resolve(req)
		if err != nil {
			return out, err
		}
		if _, err := r.sweep(ctx, search.Options{Workers: w.workers}); err != nil {
			return out, err
		}
	}
	scratch := filepath.Join(cfg.work, fmt.Sprintf("trace-store-%d", srv.cmd.Process.Pid))
	st, jr, closeStore, err := openScratchStore(scratch)
	if err != nil {
		return out, err
	}
	defer closeStore()
	s := &searchTrace{
		tr: newTracer(), srv: srv, inproc: service.New(service.Config{}), st: st, jr: jr,
		famSimulated: map[string]int64{}, famReplay: map[string]int64{}, keys: map[schedule.Key]bool{},
	}

	hits0, misses0 := schedule.CacheStats()
	picker := &hitPicker{rng: rand.New(rand.NewSource(cfg.seed))}
	answers := make([]answered, len(ops))
	var cold, hits samples
	plannedHits, plannedMisses := 0, len(w.warmRequests())
	n := min(w.traceOps, len(ops))
	start := time.Now()
	for i := 0; i < n; i++ {
		root := s.tr.begin("op", i, -1)
		var ok bool
		if ops[i].Hit {
			// One op at a time, so every cold op picked is complete.
			var targets []answered
			for len(targets) < hitBurst {
				j, picked := picker.pick()
				if !picked {
					break
				}
				targets = append(targets, answers[j])
			}
			sp := s.tr.begin("http.search/burst", i, root)
			r := burstOnce(ctx, srv, targets)
			s.tr.end(sp)
			hits.add(r.lat...)
			plannedHits += len(targets)
			ok = r.ok
		} else {
			body, err := json.Marshal(ops[i].Req)
			if err != nil {
				return out, err
			}
			sp := s.tr.begin("http.search", i, root)
			status, blob, _, err := srv.post(ctx, "/v1/search", body)
			cold.add(s.tr.end(sp))
			plannedMisses++
			var resp service.SearchResponse
			ok = err == nil && status == 200 && json.Unmarshal(blob, &resp) == nil && !resp.Partial && !resp.Cached
			if ok {
				answers[i] = answered{body, resp.Title, resp.Table}
				picker.done(i)
				plannedHits++ // the loopback hit op() sends
				if ok, err = s.op(ctx, i, root, body, ops[i].Req, resp); err != nil {
					return out, err
				}
			}
		}
		s.tr.end(root)
		if !ok {
			out.failed++
			out.note("op %d failed its checks", i)
		}
	}
	elapsed := time.Since(start)
	hits1, misses1 := schedule.CacheStats()
	out.attempted = n
	out.failed += selfCheck(ctx, &out, srv, plannedHits, plannedMisses)
	if s.cold == 0 {
		return out, errors.New("traced run saw no cold op")
	}

	path := filepath.Join(cfg.work, "trace-"+w.name+".json")
	if err := s.tr.writeChrome(path, fmt.Sprintf("%s seed %d", w.name, cfg.seed)); err != nil {
		return out, err
	}
	out.note("trace: %d spans written to %s", len(s.tr.spans), path)
	out.note("traced end-to-end: setup_s=%.3f ops=%d in %.3fs (%.2f ops/s, tracing included); cold n=%d p50=%.3fms; hits n=%d p50=%.3fms",
		setups[0], n, elapsed.Seconds(), float64(n)/elapsed.Seconds(), len(cold), quantileOrZero(cold, 0.5), len(hits), quantileOrZero(hits, 0.5))
	s.metrics(out.values, float64(hits1-hits0)/float64(hits1-hits0+misses1-misses0))
	if err := w.premise(out.values); err != nil {
		out.failed++
		out.note("premise of %s contradicted: %v", w.name, err)
	}
	return out, nil
}

// metrics derives the per-layer metrics from the spans and counts. Counts
// are per traced cold op; times are per call unless the name says
// otherwise.
func (s *searchTrace) metrics(v map[string]float64, cacheHitRate float64) {
	t := s.tr.totals()
	perOp := func(x int64) float64 { return float64(x) / float64(s.cold) }
	v["search.groups"] = perOp(s.groups)
	v["search.enumerated"] = perOp(s.enumerated)
	v["search.dominated"] = perOp(s.dominated)
	v["search.floored_out"] = perOp(s.flooredOut)
	v["search.replay_priced"] = perOp(s.replayPriced)
	v["search.simulated"] = perOp(s.simulated)
	v["search.warm_start_hits"] = perOp(s.warm)
	for _, f := range search.AllFamilies() {
		k := f.Info().Key
		v["search."+k+".simulated"] = perOp(s.famSimulated[k])
		v["search."+k+".replay_priced"] = perOp(s.famReplay[k])
	}
	v["search.prune_rate"] = float64(s.dominated+s.boundedOut) / float64(s.enumerated)
	v["search.sims_per_group"] = float64(s.simulated) / float64(s.groups)
	v["search.sweep_ms"] = t["search.SweepAll/w1"].meanMS()
	v["search.enumerate_ms"] = float64(t["search.Enumerate"].total.Nanoseconds()) / 1e6 / float64(s.cold)
	v["search.table_us"] = t["search.Table"].meanUS()

	v["analytic.floor_us"] = t["analytic.Floor"].meanUS()
	v["analytic.replay_us"] = t["analytic.LowerBoundCached"].meanUS()
	v["analytic.replay_allocs"] = perCall(s.replayMallocs, s.replayCalls)
	v["analytic.replay_busy_ms"] = v["analytic.replay_us"] * v["search.replay_priced"] / 1e3
	v["engine.precheck_us"] = t["engine.Precheck"].meanUS()
	v["engine.simulate_ms"] = t["engine.SimulateOpts"].meanMS()
	v["engine.simulate_allocs"] = perCall(s.simMallocs, s.simCalls)
	v["engine.simulate_busy_ms"] = v["engine.simulate_ms"] * v["search.simulated"]
	v["parallel.scaling"] = float64(t["search.SweepAll/w1"].total) / float64(t["search.SweepAll/wmax"].total)
	v["schedule.keys"] = float64(len(s.keys))
	v["schedule.generate_ms"] = t["schedule.Generate+Check"].meanMS()
	v["schedule.cache_hit_rate"] = cacheHitRate
	v["memsim.estimate_us"] = t["memsim.Estimate"].meanUS()
	v["cost.derive_us"] = t["cost.Derive"].meanUS()

	v["service.cold_ms"] = t["service.Search/cold"].meanMS()
	v["service.hit_us"] = t["service.Search/hit"].meanUS()
	v["service.hit_allocs"] = perCall(s.hitMallocs, s.hitCalls)
	v["service.encode_us"] = t["json.Marshal"].meanUS()
	v["http.overhead_us"] = float64(s.httpHit.Nanoseconds())/1e3/float64(s.hitCalls) - v["service.hit_us"]
	v["store.put_us"] = t["store.Put"].meanUS()
	v["store.append_us"] = t["store.Append"].meanUS()
	v["store.appends"] = perOp(s.appends)
	v["process.alloc_mb_per_op"] = float64(s.coldBytes) / (1 << 20) / float64(s.cold)
	v["process.gc_pause_ms_per_op"] = float64(s.coldPause.Nanoseconds()) / 1e6 / float64(s.cold)
}

// op makes the in-process calls for one cold op, each under its own span
// below root, and checks the in-process answers against the server's
// response. It reports whether every check passed.
func (s *searchTrace) op(ctx context.Context, id, root int, body []byte, req service.SearchRequest, resp service.SearchResponse) (bool, error) {
	tr := s.tr
	// The loopback round trip of a cached key, for http.overhead_us.
	sp := tr.begin("http.search/hit", id, root)
	hit := searchOnce(ctx, s.srv, body, true)
	tr.end(sp)
	ok := hit.ok && hit.title == resp.Title && hit.table == resp.Table
	s.httpHit += hit.lat[0]

	r, err := resolve(req)
	if err != nil {
		return false, err
	}
	// The search itself, at one worker (where its counters repeat exactly)
	// and at GOMAXPROCS workers (parallel.scaling).
	stats := &search.Stats{}
	sp = tr.begin("search.SweepAll/w1", id, root)
	results, err := r.sweep(ctx, search.Options{Workers: 1, Stats: stats})
	tr.end(sp)
	if err != nil {
		return false, err
	}
	sp = tr.begin("search.SweepAll/wmax", id, root)
	_, err = r.sweep(ctx, search.Options{Workers: runtime.GOMAXPROCS(0)})
	tr.end(sp)
	if err != nil {
		return false, err
	}
	s.cold++
	s.enumerated += stats.Enumerated.Load()
	s.dominated += stats.Dominated.Load()
	s.boundedOut += stats.BoundSkipped.Load()
	s.flooredOut += stats.FlooredOut.Load()
	s.replayPriced += stats.ReplayPriced.Load()
	s.simulated += stats.Simulated.Load()
	s.warm += stats.WarmStartHits.Load()
	for _, k := range stats.FamilyKeys() {
		fs := stats.Family(k)
		s.famSimulated[k] += fs.Simulated.Load()
		s.famReplay[k] += fs.ReplayPriced.Load()
	}

	// Enumeration per (family, batch) group, then the per-candidate layers.
	var plans []core.Plan
	for _, f := range r.fams {
		for _, b := range r.batches {
			sp = tr.begin("search.Enumerate", id, root)
			g := search.Enumerate(ctx, r.c, r.m, f, b, search.Options{Params: r.par})
			tr.end(sp)
			if len(g) > 0 {
				s.groups++
			}
			plans = append(plans, g...)
		}
	}
	eopt := engine.Options{Params: r.par}
	for _, p := range plans {
		sp = tr.begin("engine.Precheck", id, root)
		err := engine.Precheck(r.c, r.m, p, eopt)
		tr.end(sp)
		if err != nil {
			return false, err
		}
		sp = tr.begin("analytic.Floor", id, root)
		analytic.Floor(r.c, r.m, p, r.par)
		tr.end(sp)
		sp = tr.begin("cost.Derive", id, root)
		cost.Derive(r.c, r.m, p, *r.par)
		tr.end(sp)
		sp = tr.begin("memsim.Estimate", id, root)
		memsim.Estimate(r.m, p)
		tr.end(sp)
		if k := schedule.KeyOf(p); !s.keys[k] {
			s.keys[k] = true
			sp = tr.begin("schedule.Generate+Check", id, root)
			sched, err := schedule.Generate(p)
			if err == nil {
				err = schedule.Check(sched)
			}
			tr.end(sp)
			if err != nil {
				return false, err
			}
		}
	}

	// Tier-2 replay with one prefix cache per op, over every candidate
	// whose method has a tier-2 hook.
	rc := schedule.NewReplayCache()
	md := startMem()
	for _, p := range plans {
		if hasTier2(p) {
			sp = tr.begin("analytic.LowerBoundCached", id, root)
			analytic.LowerBoundCached(r.c, r.m, p, r.par, rc)
			tr.end(sp)
			s.replayCalls++
		}
	}
	mallocs, _, _ := md.stop()
	s.replayMallocs += mallocs

	// Simulation of the group winners plus every candidate of a family
	// with no tier-2 hook, which the search simulates instead of replaying.
	var pop []core.Plan
	seen := map[core.Plan]bool{}
	for _, f := range r.fams {
		for _, b := range results[f] {
			seen[b.Plan] = true
			pop = append(pop, b.Plan)
		}
	}
	for _, p := range plans {
		if !hasTier2(p) && !seen[p] {
			pop = append(pop, p)
		}
	}
	md = startMem()
	for _, p := range pop {
		sp = tr.begin("engine.SimulateOpts", id, root)
		_, err := engine.SimulateOpts(r.c, r.m, p, eopt)
		tr.end(sp)
		if err != nil {
			return false, err
		}
	}
	mallocs, _, _ = md.stop()
	s.simCalls += uint64(len(pop))
	s.simMallocs += mallocs

	sp = tr.begin("search.Table", id, root)
	table := search.Table(resp.Title, results)
	tr.end(sp)
	ok = ok && table == resp.Table

	// The service path in process: a cold search on a key new to this
	// service, then the same key again as a hit.
	md = startMem()
	sp = tr.begin("service.Search/cold", id, root)
	got, err := s.inproc.Search(ctx, req)
	tr.end(sp)
	_, bytes, pause := md.stop()
	s.coldBytes += bytes
	s.coldPause += pause
	ok = ok && err == nil && !got.Cached && got.Table == resp.Table
	md = startMem()
	sp = tr.begin("service.Search/hit", id, root)
	got, err = s.inproc.Search(ctx, req)
	tr.end(sp)
	mallocs, _, _ = md.stop()
	s.hitMallocs += mallocs
	s.hitCalls++
	ok = ok && err == nil && got.Cached && got.Table == resp.Table

	// Encoding and the durable writes the server makes per cold op.
	sp = tr.begin("json.Marshal", id, root)
	blob, err := json.Marshal(resp)
	tr.end(sp)
	if err != nil {
		return false, err
	}
	key, err := canonicalKey(req)
	if err != nil {
		return false, err
	}
	sp = tr.begin("store.Put", id, root)
	err = s.st.Put(key, blob)
	tr.end(sp)
	if err != nil {
		return false, err
	}
	for _, f := range r.fams {
		for _, b := range results[f] {
			entry, err := json.Marshal(journalEntry{Key: search.GroupKey{Family: f.Info().Key, Batch: b.Plan.BatchSize()}, Best: b})
			if err != nil {
				return false, err
			}
			sp = tr.begin("store.Append", id, root)
			err = s.jr.Append(key, entry)
			tr.end(sp)
			if err != nil {
				return false, err
			}
			s.appends++
		}
	}
	return ok, nil
}

// hasTier2 reports whether the plan's method has an exact tier-2 price
// (the replay hooks); the search simulates every other candidate.
func hasTier2(p core.Plan) bool {
	t := schedule.TraitsOf(p.Method)
	return t.StepLB != nil || t.StepLBCached != nil
}

// openScratchStore opens a result store and a sweep journal like the
// server's (-store-nosync) in a fresh directory.
func openScratchStore(dir string) (*store.File, *store.Journal, func(), error) {
	if err := resetDir(dir); err != nil {
		return nil, nil, nil, err
	}
	opts := store.Options{Repair: true, NoSync: true}
	st, err := store.OpenOptions(filepath.Join(dir, "results.log"), opts)
	if err != nil {
		return nil, nil, nil, err
	}
	jr, err := store.OpenJournalOptions(filepath.Join(dir, "sweeps.journal"), opts)
	if err != nil {
		st.Close()
		return nil, nil, nil, err
	}
	return st, jr, func() {
		// Scratch data only: close errors cannot change a result.
		_ = jr.Close()
		_ = st.Close()
		removeDir(dir)
	}, nil
}

func perCall(n, calls uint64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(n) / float64(calls)
}

// quantileOrZero is a quantile for a note, where a short sample is fine.
func quantileOrZero(s samples, q float64) float64 {
	v, err := s.quantile(q)
	if err != nil {
		return 0
	}
	return v
}
