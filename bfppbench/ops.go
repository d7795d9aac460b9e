package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"bfpp/internal/cli"
	"bfpp/internal/search"
	"bfpp/internal/service"
)

// searchOp is one /v1/search request of a search workload's timed loop:
// a cold request, or a hit, which repeats the request of a recent cold op
// so the server answers it from its result cache. A hit's target is drawn
// when it is sent (hitPicker), so Req is set only on cold ops.
type searchOp struct {
	Hit bool                  `json:"hit"`
	Req service.SearchRequest `json:"req"`
}

// hitPicker draws each hit's target as the hit is sent: one of the last
// hitWindow cold ops to have completed, so with several connections the
// target's answer is always cached already. With one connection completion
// order is list order, and the targets depend on the seed alone.
type hitPicker struct {
	rng    *rand.Rand
	recent []int // completed cold op indexes, oldest first
}

// done records a completed cold op.
func (h *hitPicker) done(i int) {
	if len(h.recent) == hitWindow {
		h.recent = append(h.recent[:0], h.recent[1:]...)
	}
	h.recent = append(h.recent, i)
}

// pick returns a hit's target, or false before any cold op completed.
func (h *hitPicker) pick() (int, bool) {
	if len(h.recent) == 0 {
		return 0, false
	}
	return h.recent[h.rng.Intn(len(h.recent))], true
}

// scenario is one (model, cluster, cost model) point of a search workload
// together with its full batch grid and the number of grid batches each
// cold op draws.
type scenario struct {
	model, cluster, costModel string
	grid                      []int
	draw                      int
}

// searchWorkload describes a search workload: its scenarios, how a cold
// op draws its batches and families, and how the run is shaped.
type searchWorkload struct {
	name      string
	scenarios []scenario
	// families returns the family selections a cold op draws from; nil
	// means every op asks for the paper families ("all").
	families [][]string
	// warmFamilies is the family selection of the warm pass.
	warmFamilies []string
	// workers is the per-request worker budget (0 = server default).
	workers int
	// conns is the number of closed-loop connections.
	conns int
	// hitEvery makes every hitEvery-th op a hit.
	hitEvery int
	// setups is how many times the server is started and warmed; setup_s
	// is their median.
	setups int
	// traceOps is the op prefix the traced run replays.
	traceOps int
	// premise checks the traced run's per-layer metrics against the split
	// of work the workload is chosen for; a contradiction fails the run.
	premise func(v map[string]float64) error
}

// hitWindow is how far back a hit may reach: it repeats one of the last
// hitWindow cold keys, which the server's default 64-entry result cache
// (insertion-order eviction, one insertion per cold op) still holds.
const hitWindow = 32

// costModels are the cost models every search scenario is priced under.
var costModels = []string{"paper", "contended", "calibrated"}

// paperGrid is the Figure 7 experiment: both paper models on both paper
// clusters under every cost model, each cold op asking for the paper
// families on four of the Figure 7 batches, over one connection. A quarter
// of the ops are hits. Branch-and-bound holds every paper family to one
// simulation per (family, batch) group here.
func paperGrid() *searchWorkload {
	grid := []int{8, 16, 32, 64, 96, 128, 192, 256, 384, 512}
	w := &searchWorkload{
		name:         "paper-grid",
		warmFamilies: []string{"all"},
		conns:        1,
		hitEvery:     4,
		setups:       5,
		traceOps:     40,
		premise: func(v map[string]float64) error {
			if spg := v["search.sims_per_group"]; spg != 1 {
				return fmt.Errorf("search.sims_per_group = %v, not exactly 1", spg)
			}
			return nil
		},
	}
	for _, m := range []string{"52B", "6.6B"} {
		for _, c := range []string{"paper", "ethernet"} {
			for _, cm := range costModels {
				w.scenarios = append(w.scenarios, scenario{m, c, cm, grid, 4})
			}
		}
	}
	return w
}

// appendixELarge is the appendixE-large artifact's scenarios — GPT-3 on
// 512 GPUs and 1T on 2048 — under every cost model. Each cold op asks for
// the V-schedule plus three or four of the other seven families at one
// worker, over nproc connections. Every other op is a hit: a hit's burst
// costs a few milliseconds against tens for a cold op here, so hits barely
// move the CPU mix, and the loop still yields thousands of hit samples. The
// V-schedule has no exact tier-2 bound, so simulation dominates: more than
// 1.5 simulations per group, most of them the V-schedule's.
func appendixELarge() *searchWorkload {
	w := &searchWorkload{
		name:         "appendix-e-large",
		warmFamilies: []string{"every"},
		workers:      1,
		conns:        runtime.NumCPU(),
		hitEvery:     2,
		setups:       5,
		traceOps:     20,
		premise: func(v map[string]float64) error {
			if spg := v["search.sims_per_group"]; !(spg > 1.5) {
				return fmt.Errorf("search.sims_per_group = %v, not above 1.5", spg)
			}
			vSims, otherMax := v["search.v.simulated"], math.Inf(-1)
			for _, f := range search.AllFamilies() {
				if k := f.Info().Key; k != "v" {
					otherMax = math.Max(otherMax, v["search."+k+".simulated"])
				}
			}
			if !(vSims > otherMax) {
				return fmt.Errorf("search.v.simulated = %v is not the largest family count (another family has %v)", vSims, otherMax)
			}
			return nil
		},
	}
	for _, sc := range []scenario{
		{model: "GPT-3", cluster: "512", grid: []int{64, 128, 256}, draw: 2},
		{model: "1T", cluster: "2048", grid: []int{256, 512}, draw: 1},
	} {
		for _, cm := range costModels {
			sc.costModel = cm
			w.scenarios = append(w.scenarios, sc)
		}
	}
	var others []string
	for _, f := range search.AllFamilies() {
		if k := f.Info().Key; k != "v" {
			others = append(others, k)
		}
	}
	for k := 3; k <= 4; k++ {
		for _, sub := range subsets(len(others), k) {
			fams := []string{"v"}
			for _, i := range sub {
				fams = append(fams, others[i])
			}
			w.families = append(w.families, fams)
		}
	}
	return w
}

// warmRequests is the untimed warm pass: each scenario's full grid once,
// so cold memo fills (schedule generation and checking, memory estimates)
// land in setup rather than in the timed loop. No cold op shares a key
// with it: cold ops draw strictly smaller batch or family sets.
func (w *searchWorkload) warmRequests() []service.SearchRequest {
	var out []service.SearchRequest
	for _, sc := range w.scenarios {
		out = append(out, service.SearchRequest{
			Model: sc.model, Cluster: sc.cluster, CostModel: sc.costModel,
			Families: w.warmFamilies, Batches: sc.grid, Workers: w.workers,
		})
	}
	return out
}

// ops generates the workload's full op list from the seed. Every
// hitEvery-th op is a hit; the rest are cold. Cold ops come in rounds that
// visit every scenario once in a seeded order, so any stretch of the loop
// carries the same mix of models, clusters and cost models; within a
// scenario they walk a seeded permutation of all its (batches, families)
// draws, so no cold key repeats. The list ends when a scenario runs out of
// draws.
func (w *searchWorkload) ops(seed int64) []searchOp {
	rng := rand.New(rand.NewSource(seed))
	fams := w.families
	if fams == nil {
		fams = [][]string{{"all"}}
	}
	type pool struct {
		draws []service.SearchRequest
		next  int
	}
	pools := make([]*pool, len(w.scenarios))
	for i, sc := range w.scenarios {
		p := &pool{}
		for _, sub := range subsets(len(sc.grid), sc.draw) {
			batches := make([]int, len(sub))
			for j, k := range sub {
				batches[j] = sc.grid[k]
			}
			for _, f := range fams {
				p.draws = append(p.draws, service.SearchRequest{
					Model: sc.model, Cluster: sc.cluster, CostModel: sc.costModel,
					Families: f, Batches: batches, Workers: w.workers,
				})
			}
		}
		rng.Shuffle(len(p.draws), func(a, b int) { p.draws[a], p.draws[b] = p.draws[b], p.draws[a] })
		pools[i] = p
	}
	var out []searchOp
	var round []int
	for {
		if len(out)%w.hitEvery == w.hitEvery-1 {
			out = append(out, searchOp{Hit: true})
			continue
		}
		if len(round) == 0 {
			round = rng.Perm(len(pools))
		}
		p := pools[round[0]]
		round = round[1:]
		if p.next == len(p.draws) {
			return out
		}
		out = append(out, searchOp{Req: p.draws[p.next]})
		p.next++
	}
}

// subsets lists the k-element subsets of {0..n-1} in lexicographic order.
func subsets(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// canonicalKey is the canonical form of a request's result: model,
// cluster, the resolved family keys in registry order, the sorted batches
// and the cost-model name. Two requests with one key get one answer.
func canonicalKey(r service.SearchRequest) (string, error) {
	fams, err := cli.ParseFamilies(strings.Join(r.Families, ","))
	if err != nil {
		return "", err
	}
	sort.Slice(fams, func(a, b int) bool { return fams[a] < fams[b] })
	keys := make([]string, 0, len(fams))
	for i, f := range fams {
		if i == 0 || f != fams[i-1] {
			keys = append(keys, f.Info().Key)
		}
	}
	batches := append([]int(nil), r.Batches...)
	sort.Ints(batches)
	return fmt.Sprintf("model=%s|cluster=%s|families=%s|batches=%v|cost=%s",
		r.Model, r.Cluster, strings.Join(keys, ","), batches, r.CostModel), nil
}
