package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bfpp/internal/cli"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/search"
	"bfpp/internal/service"
)

// searchReply is the part of a /v1/search response the checks read.
type searchReply struct {
	Title   string `json:"title"`
	Table   string `json:"table"`
	Cached  bool   `json:"cached"`
	Partial bool   `json:"partial"`
}

// opResult is one timed op's outcome: its latency (a hit's, one per
// request of its burst), whether every check passed and, for a single
// request, its answer.
type opResult struct {
	lat          []time.Duration
	ok           bool
	title, table string
}

// answered is a completed cold op a hit may repeat: its request body and
// the answer it got.
type answered struct {
	body         []byte
	title, table string
}

// hitBurst is how many cached requests a hit op sends, one after another
// on its connection, each for one of the recent cold keys and each a
// latency sample of its own. A cached request takes well under a
// millisecond, so the bursts give the hit percentiles thousands of samples
// per run while hits stay a small share of the loop's time.
const hitBurst = 16

// recomputeSamples is how many cold answers per run are recomputed in
// process without pruning and compared byte for byte.
const recomputeSamples = 3

// runSearch runs a search workload: start and warm the server (several
// times, for setup_s), drive the timed closed loop, check the server's own
// counters, and recompute a seeded sample of cold answers.
func runSearch(ctx context.Context, cfg config, w *searchWorkload) (outcome, error) {
	ops := w.ops(cfg.seed)
	if cfg.trace {
		return traceSearch(ctx, cfg, w, ops)
	}
	out := outcome{values: map[string]float64{}}
	srv, setups, err := setupServers(ctx, cfg, w, w.setups)
	if err != nil {
		return out, err
	}
	defer srv.stop()
	out.values["setup_s"] = median(setups)
	out.note("setup_s: %d setups %v", len(setups), setups)

	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		if !op.Hit {
			if bodies[i], err = json.Marshal(op.Req); err != nil {
				return out, err
			}
		}
	}
	results := make([]opResult, len(ops))
	picker := &hitPicker{rng: rand.New(rand.NewSource(cfg.seed))}
	var mu sync.Mutex
	coldDoneCond := sync.NewCond(&mu) // signalled as each cold op completes
	next, nCold, nHit, hitReqs, coldInFlight := 0, 0, 0, 0, 0
	var done []int // op indexes in completion order
	loop := startLoop(cfg.seconds)
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(ops) || ctx.Err() != nil || loop.over(nCold, hitReqs) {
					mu.Unlock()
					return
				}
				i := next
				next++
				var targets []answered
				if ops[i].Hit {
					// A hit waits for its connection peers' cold ops when
					// none has completed yet (the loop's first ops).
					for len(targets) < hitBurst {
						t, ok := picker.pick()
						if ok {
							targets = append(targets, answered{bodies[t], results[t].title, results[t].table})
						} else if coldInFlight == 0 {
							break
						} else {
							coldDoneCond.Wait()
						}
					}
				} else {
					coldInFlight++
				}
				mu.Unlock()
				var r opResult
				if ops[i].Hit {
					r = burstOnce(ctx, srv, targets)
				} else {
					r = searchOnce(ctx, srv, bodies[i], false)
				}
				mu.Lock()
				results[i] = r
				done = append(done, i)
				if ops[i].Hit {
					nHit++
					hitReqs += len(targets)
				} else {
					nCold++
					coldInFlight--
					if r.ok {
						picker.done(i)
					}
					coldDoneCond.Broadcast()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := loop.end(&out)
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if next == len(ops) {
		out.note("op list exhausted after %.1fs of the %.0fs loop", elapsed.Seconds(), cfg.seconds)
	}

	var cold, hits samples
	var coldDone []int
	for _, i := range done {
		r := results[i]
		if !r.ok {
			out.failed++
		}
		if ops[i].Hit {
			hits.add(r.lat...)
		} else {
			cold.add(r.lat...)
			if r.ok {
				coldDone = append(coldDone, i)
			}
		}
	}
	out.attempted = len(done)
	out.values["throughput_ops"] = float64(len(done)) / elapsed.Seconds()
	out.note("loop: %d ops (%d cold, %d hits of %d cached requests each) in %.3fs on %d connections",
		len(done), len(cold), nHit, hitBurst, elapsed.Seconds(), w.conns)
	if err := latencyMetrics(&out, "latency", cold); err != nil {
		return out, err
	}
	if err := latencyMetrics(&out, "hit_latency", hits); err != nil {
		return out, err
	}
	if out.values["rss_peak_mb"], err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return out, err
	}
	out.failed += selfCheck(ctx, &out, srv, hitReqs, len(w.warmRequests())+len(cold))
	srv.stop()

	// Recompute a seeded sample of cold answers without pruning, at one
	// worker, and require byte-identical tables.
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	for k := 0; k < recomputeSamples && len(coldDone) > 0; k++ {
		j := rng.Intn(len(coldDone))
		i := coldDone[j]
		coldDone = append(coldDone[:j], coldDone[j+1:]...)
		want, err := referenceTable(ctx, ops[i].Req, results[i].title)
		if err != nil {
			return out, err
		}
		if results[i].table != want {
			out.failed++
			out.note("op %d: table differs from the unpruned recomputation", i)
		}
	}
	return out, nil
}

// setupServers starts and warms n servers one after another, stopping
// all but the last, and returns it with each setup's duration in seconds:
// from process start to the end of the warm pass.
func setupServers(ctx context.Context, cfg config, w *searchWorkload, n int) (*server, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		srv, err := startServer(ctx, cfg.serve, filepath.Join(cfg.work, fmt.Sprintf("store-%d", os.Getpid())))
		if err != nil {
			return nil, nil, err
		}
		for _, req := range w.warmRequests() {
			body, err := json.Marshal(req)
			if err == nil {
				if r := searchOnce(ctx, srv, body, false); !r.ok {
					err = fmt.Errorf("warm request %s failed", body)
				}
			}
			if err != nil {
				srv.stop()
				return nil, nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return srv, times, nil
		}
		srv.stop()
	}
}

// searchOnce sends one search and checks it: status 200, a complete
// (not partial) answer, and served from the cache exactly when planned.
func searchOnce(ctx context.Context, srv *server, body []byte, hit bool) opResult {
	status, blob, lat, err := srv.post(ctx, "/v1/search", body)
	r := opResult{lat: []time.Duration{lat}}
	if err != nil || status != 200 {
		return r
	}
	var rep searchReply
	if json.Unmarshal(blob, &rep) != nil || rep.Partial || rep.Cached != hit {
		return r
	}
	r.ok, r.title, r.table = true, rep.Title, rep.Table
	return r
}

// burstOnce sends a hit op's requests and checks each: served from the
// cache, with the title and table its cold op got.
func burstOnce(ctx context.Context, srv *server, targets []answered) opResult {
	r := opResult{ok: len(targets) > 0}
	for _, a := range targets {
		got := searchOnce(ctx, srv, a.body, true)
		r.lat = append(r.lat, got.lat...)
		r.ok = r.ok && got.ok && got.title == a.title && got.table == a.table
	}
	return r
}

// selfCheck scrapes /metrics and returns the number of discrepancies: the
// server's cache hit and miss counters must equal the planned hit and cold
// counts (so no op changed class), and it must have shed nothing.
func selfCheck(ctx context.Context, out *outcome, srv *server, hits, misses int) int {
	m, err := srv.metrics(ctx)
	if err != nil {
		out.note("self-check: %v", err)
		return 1
	}
	bad := 0
	for _, c := range []struct {
		name string
		want int
	}{
		{"bfpp_search_cache_hits_total", hits},
		{"bfpp_search_cache_misses_total", misses},
		{"bfpp_jobs_shed_total", 0},
	} {
		got, ok := m[c.name]
		if !ok || int(got) != c.want {
			out.note("self-check: %s = %v, planned %d", c.name, got, c.want)
			bad += max(1, abs(int(got)-c.want))
		}
	}
	return bad
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// resolved is a search request with its registry names resolved, as the
// in-process calls need it.
type resolved struct {
	m       model.Transformer
	c       hw.Cluster
	fams    []search.Family
	batches []int
	par     *engine.Params
}

func resolve(r service.SearchRequest) (resolved, error) {
	var out resolved
	var err error
	if out.m, err = cli.ParseModel(r.Model); err != nil {
		return out, err
	}
	if out.c, err = cli.ParseCluster(r.Cluster); err != nil {
		return out, err
	}
	if out.fams, err = cli.ParseFamilies(strings.Join(r.Families, ",")); err != nil {
		return out, err
	}
	cm, err := cli.ParseCostModel(r.CostModel)
	if err != nil {
		return out, err
	}
	par := engine.Defaults()
	par.Model = cm
	out.par = &par
	out.batches = r.Batches
	return out, nil
}

// sweep runs the request's grid search in process; an infeasible grid is
// an empty result, as the service reports it.
func (r resolved) sweep(ctx context.Context, opt search.Options) (map[search.Family][]search.Best, error) {
	opt.Params = r.par
	res, err := search.SweepAll(ctx, r.c, r.m, r.fams, r.batches, opt)
	if errors.Is(err, search.ErrInfeasible) {
		return map[search.Family][]search.Best{}, nil
	}
	return res, err
}

// referenceTable is the request's table recomputed in process with the
// branch-and-bound off, at one worker, under the served title.
func referenceTable(ctx context.Context, req service.SearchRequest, title string) (string, error) {
	r, err := resolve(req)
	if err != nil {
		return "", err
	}
	res, err := r.sweep(ctx, search.Options{NoPrune: true, Workers: 1})
	if err != nil {
		return "", err
	}
	return search.Table(title, res), nil
}
