package analytic

import (
	"math"
	"math/rand"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// boundModel is the 16-layer test model: small enough that randomized
// stage counts divide it, large enough that every cost term is non-zero.
func boundModel() model.Transformer { return model.Tiny() }

// randomBoundPlan draws a structurally valid plan for the method on the
// 64-GPU paper cluster and the 16-layer model, spanning overlap flags,
// shardings, tensor/data parallelism and the per-method Sequence dial.
// ok is false when the draw cannot be repaired.
func randomBoundPlan(rng *rand.Rand, m core.Method, traits schedule.Traits) (core.Plan, bool) {
	p := core.Plan{
		Method:     m,
		TP:         1 << rng.Intn(2),
		MicroBatch: 1 + rng.Intn(3),
		Sharding:   core.DP0,
	}
	if len(traits.Shardings) > 0 {
		p.Sharding = traits.Shardings[rng.Intn(len(traits.Shardings))]
	}
	if rng.Intn(2) == 0 {
		p.OverlapDP, p.OverlapPP = true, true
	}
	info, ok := m.Info()
	if !ok {
		return p, false
	}
	layers := boundModel().Layers
	if !info.Pipelined {
		p.PP = 1
		p.Loops = []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		p.NumMicro = 1 + rng.Intn(6)
	} else {
		p.PP = 2 << rng.Intn(3) // 2..8
		p.Loops = 1
		if info.Looped {
			for p.Loops = 1 << rng.Intn(3); p.PP*p.Loops > layers; {
				p.Loops /= 2
			}
		}
		p.NumMicro = p.PP * (1 + rng.Intn(4))
	}
	p.DP = 1 << rng.Intn(3)
	if p.GPUs() > hw.PaperCluster().NumGPUs() {
		return p, false
	}
	switch m {
	case core.Hybrid:
		p.Sequence = p.PP
		if p.NumMicro%(2*p.PP) == 0 && rng.Intn(2) == 0 {
			p.Sequence = 2 * p.PP
		}
	case core.VSchedule:
		p.Sequence = rng.Intn(2*p.PP + 1) // 0 = default cap
	}
	if p.Sharding == core.DPFS && p.DP == 1 {
		p.Sharding = core.DP0
	}
	return p, p.Validate(boundModel()) == nil
}

// TestLowerBoundNeverExceedsSimulation is the admissibility property of
// the branch-and-bound evaluator: for randomized plans of every registered
// generator, the analytic lower bound never exceeds the simulated batch
// time, and a bound reported exact matches it bit for bit. Exactness is
// required of every generator that registers a tier-2 hook (StepLB or
// StepLBCached). The simulator runs the same replay as that hook, so for
// those generators the exactness half compares the replay with itself; the
// replay's independent check is internal/engine's
// TestReplayMatchesOracleRandomized, which compares it with a task graph
// run on des.Sim.RunReference. The admissibility half still checks every
// floor, the V-schedule's final bound included, against the simulation.
func TestLowerBoundNeverExceedsSimulation(t *testing.T) {
	c := hw.PaperCluster()
	m := boundModel()
	rng := rand.New(rand.NewSource(42))
	for _, g := range schedule.Generators() {
		method := g.Method()
		traits := g.Traits()
		tier2 := traits.StepLB != nil || traits.StepLBCached != nil
		checked, exactSeen := 0, 0
		for trial := 0; trial < 500 && checked < 60; trial++ {
			p, ok := randomBoundPlan(rng, method, traits)
			if !ok {
				continue
			}
			lb, exact := LowerBound(c, m, p, nil)
			res, err := engine.Simulate(c, m, p)
			if err != nil {
				t.Fatalf("%v: simulate %v: %v", method, p, err)
			}
			checked++
			if lb <= 0 {
				t.Errorf("%v: non-positive bound %v for %v", method, lb, p)
			}
			if lb > res.BatchTime {
				t.Errorf("%v: bound %v exceeds simulated %v (by %v) for %v",
					method, lb, res.BatchTime, lb-res.BatchTime, p)
			}
			if exact {
				exactSeen++
				if lb != res.BatchTime {
					t.Errorf("%v: exact bound %v != simulated %v (diff %v) for %v",
						method, lb, res.BatchTime, lb-res.BatchTime, p)
				}
			} else if tier2 {
				t.Errorf("%v: bound not exact for %v (the multi-stream replay must cover it)", method, p)
			}
		}
		if checked < 20 {
			t.Errorf("%v: only %d randomized plans checked", method, checked)
		}
		t.Logf("%v: %d plans checked, %d exact", method, checked, exactSeen)
	}
}

// gridPoint expands a drawn plan into its grid point's candidate set the
// way the search enumerates it: one candidate per registered sharding
// (the sharded modes only when DP > 1) times, for methods with
// SequenceOptions, one per sequence option. Invalid combinations drop out.
func gridPoint(p core.Plan, traits schedule.Traits) []core.Plan {
	shardings := traits.Shardings
	if len(shardings) == 0 {
		shardings = []core.Sharding{core.DP0}
	}
	var out []core.Plan
	for _, sh := range shardings {
		if sh != core.DP0 && p.DP == 1 {
			continue
		}
		base := p
		base.Sharding, base.Sequence = sh, 0
		seqs := []int{0}
		if traits.SequenceOptions != nil {
			seqs = traits.SequenceOptions(base)
		}
		for _, q := range seqs {
			cand := base
			cand.Sequence = q
			if cand.Validate(boundModel()) == nil {
				out = append(out, cand)
			}
		}
	}
	return out
}

// TestLowerBoundCachedMatchesUncached pins LowerBoundCached, kept for the
// benchmark harness, to LowerBound. For every registered generator, the
// candidates of randomized grid points are priced in a seeded shuffled
// order through one shared ReplayCache, as the benchmark prices them, and
// each (lb, exact) must be bit-identical to LowerBound's result.
func TestLowerBoundCachedMatchesUncached(t *testing.T) {
	c := hw.PaperCluster()
	m := boundModel()
	rng := rand.New(rand.NewSource(7))
	for _, g := range schedule.Generators() {
		method, traits := g.Method(), g.Traits()
		var cands []core.Plan
		for trial, points := 0, 0; trial < 500 && points < 30; trial++ {
			p, ok := randomBoundPlan(rng, method, traits)
			if !ok {
				continue
			}
			point := gridPoint(p, traits)
			if len(point) == 0 {
				continue
			}
			points++
			cands = append(cands, point...)
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		rc := schedule.NewReplayCache()
		for _, p := range cands {
			lb, exact := LowerBoundCached(c, m, p, nil, rc)
			wantLB, wantExact := LowerBound(c, m, p, nil)
			if lb != wantLB || exact != wantExact {
				t.Errorf("%v: cached (%v, %t) != uncached (%v, %t) for %v",
					method, lb, exact, wantLB, wantExact, p)
			}
		}
		t.Logf("%v: %d candidates priced through one cache", method, len(cands))
	}
}

// TestExactBoundForNonOverlapped pins the exactness guarantee the search's
// dominance pruning relies on: for non-overlapped breadth-first and
// depth-first plans the bound must be reported exact and equal the
// simulated batch time exactly (not merely below it).
func TestExactBoundForNonOverlapped(t *testing.T) {
	c := hw.PaperCluster()
	m := boundModel()
	cases := []core.Plan{
		{Method: core.BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 2, NumMicro: 8, Loops: 4},
		{Method: core.BreadthFirst, DP: 4, PP: 2, TP: 2, MicroBatch: 1, NumMicro: 6, Loops: 8},
		{Method: core.BreadthFirst, DP: 2, PP: 8, TP: 1, MicroBatch: 2, NumMicro: 16, Loops: 2, Sharding: core.DPFS},
		{Method: core.BreadthFirst, DP: 4, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 2, Sharding: core.DPPS},
		{Method: core.DepthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 2, NumMicro: 8, Loops: 4},
		{Method: core.DepthFirst, DP: 4, PP: 2, TP: 2, MicroBatch: 1, NumMicro: 6, Loops: 8},
		{Method: core.DepthFirst, DP: 2, PP: 8, TP: 1, MicroBatch: 4, NumMicro: 8, Loops: 1},
		{Method: core.OneFOneB, DP: 2, PP: 8, TP: 2, MicroBatch: 2, NumMicro: 12, Loops: 1},
		{Method: core.GPipe, DP: 4, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1, Sharding: core.DPPS},
		{Method: core.NoPipelineBF, DP: 4, PP: 1, TP: 2, MicroBatch: 2, NumMicro: 4, Loops: 16, Sharding: core.DPFS},
		{Method: core.NoPipelineDF, DP: 2, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 8, Sharding: core.DPFS},
	}
	for _, p := range cases {
		if err := p.Validate(m); err != nil {
			t.Fatalf("case %v invalid: %v", p, err)
		}
		lb, exact := LowerBound(c, m, p, nil)
		if !exact {
			t.Errorf("%v: bound not reported exact", p)
			continue
		}
		res, err := engine.Simulate(c, m, p)
		if err != nil {
			t.Fatalf("simulate %v: %v", p, err)
		}
		if lb != res.BatchTime {
			t.Errorf("%v: exact bound %v != simulated %v (diff %v)", p, lb, res.BatchTime, lb-res.BatchTime)
		}
	}
}

// TestExactBoundForOverlapped pins the multi-stream replay's headline
// claim: for overlapped implementations — the paper's own overlapped
// breadth-first runtime, WS-1F1B, and the other replay-priced generators
// with separate pp/dp streams — the bound is reported exact and equals
// the simulated batch time bit for bit, so the search can dominance-prune
// these families without simulating.
func TestExactBoundForOverlapped(t *testing.T) {
	c := hw.PaperCluster()
	m := boundModel()
	ov := func(p core.Plan) core.Plan {
		p.OverlapDP, p.OverlapPP = true, true
		return p
	}
	cases := []core.Plan{
		// The paper's overlapped breadth-first implementation, DP0 and DP-FS.
		ov(core.Plan{Method: core.BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 2, NumMicro: 8, Loops: 4}),
		ov(core.Plan{Method: core.BreadthFirst, DP: 4, PP: 2, TP: 2, MicroBatch: 1, NumMicro: 6, Loops: 8}),
		ov(core.Plan{Method: core.BreadthFirst, DP: 2, PP: 8, TP: 1, MicroBatch: 2, NumMicro: 16, Loops: 2, Sharding: core.DPFS}),
		ov(core.Plan{Method: core.BreadthFirst, DP: 4, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 2, Sharding: core.DPPS}),
		// WS-1F1B: 1F1B program, overlapped communication.
		ov(core.Plan{Method: core.WeightStash1F1B, DP: 2, PP: 8, TP: 2, MicroBatch: 2, NumMicro: 12, Loops: 1}),
		ov(core.Plan{Method: core.WeightStash1F1B, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 1}),
		// The rest of the replay-priced generators, overlapped.
		ov(core.Plan{Method: core.GPipe, DP: 4, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1, Sharding: core.DPPS}),
		ov(core.Plan{Method: core.OneFOneB, DP: 2, PP: 8, TP: 2, MicroBatch: 2, NumMicro: 12, Loops: 1}),
		ov(core.Plan{Method: core.DepthFirst, DP: 4, PP: 2, TP: 2, MicroBatch: 1, NumMicro: 6, Loops: 8}),
		ov(core.Plan{Method: core.Hybrid, DP: 1, PP: 2, TP: 2, MicroBatch: 2, NumMicro: 8, Loops: 2, Sequence: 4}),
		ov(core.Plan{Method: core.NoPipelineBF, DP: 4, PP: 1, TP: 2, MicroBatch: 2, NumMicro: 4, Loops: 16, Sharding: core.DPFS}),
		ov(core.Plan{Method: core.NoPipelineDF, DP: 2, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 8, Sharding: core.DPFS}),
	}
	for _, p := range cases {
		if err := p.Validate(m); err != nil {
			t.Fatalf("case %v invalid: %v", p, err)
		}
		if pp, dp := schedule.SideStreams(p); !pp && !dp {
			t.Fatalf("case %v is not an overlapped implementation", p)
		}
		lb, exact := LowerBound(c, m, p, nil)
		if !exact {
			t.Errorf("%v: overlapped bound not reported exact", p)
			continue
		}
		res, err := engine.Simulate(c, m, p)
		if err != nil {
			t.Fatalf("simulate %v: %v", p, err)
		}
		if lb != res.BatchTime {
			t.Errorf("%v: exact bound %v != simulated %v (diff %v)", p, lb, res.BatchTime, lb-res.BatchTime)
		}
	}
}

// TestLowerBoundTotal pins that the tier-2 bound is total: plans the
// engine's precheck rejects have no checked programs to replay, and each
// must still get a finite, positive bound that is not reported exact,
// without panicking.
func TestLowerBoundTotal(t *testing.T) {
	c := hw.PaperCluster()
	m := boundModel()
	cases := []core.Plan{
		// Depth-first needs NumMicro % PP == 0.
		{Method: core.DepthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 6, Loops: 2},
		// Pipelined methods need NumMicro >= PP.
		{Method: core.GPipe, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 2, Loops: 1},
		{Method: core.BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 2, Loops: 2},
	}
	for _, p := range cases {
		if err := engine.Precheck(c, m, p, engine.Options{}); err == nil {
			t.Fatalf("case %v: precheck accepted it", p)
		}
		lb, exact := LowerBound(c, m, p, nil)
		if exact || !(lb > 0) || math.IsInf(lb, 0) {
			t.Errorf("%v: bound (%v, exact %t), want finite, positive and not exact", p, lb, exact)
		}
	}
}

// TestVScheduleFloorAdmissible sweeps the V-schedule's in-flight caps on
// vee placements: the list-schedule-aware warmup/drain floor must stay
// admissible at every cap (smaller caps only delay operations, so the
// placement-derived chains keep holding). The V-schedule registers no
// tier-2 hook, so its bound never claims exactness.
func TestVScheduleFloorAdmissible(t *testing.T) {
	c := hw.PaperCluster()
	m := boundModel()
	for _, pp := range []int{2, 4, 8} {
		for _, loops := range []int{1, 2} {
			if pp*loops > m.Layers {
				continue
			}
			for _, seq := range []int{0, loops, pp, 2 * pp} {
				if seq > 0 && seq < loops {
					continue
				}
				p := core.Plan{Method: core.VSchedule, DP: 2, PP: pp, TP: 1,
					MicroBatch: 1, NumMicro: 2 * pp, Loops: loops, Sequence: seq,
					OverlapDP: true, OverlapPP: true}
				if err := p.Validate(m); err != nil {
					t.Fatalf("case %v invalid: %v", p, err)
				}
				lb, exact := LowerBound(c, m, p, nil)
				if exact {
					t.Errorf("%v: V-schedule has no tier-2 hook and must not claim exactness", p)
				}
				res, err := engine.Simulate(c, m, p)
				if err != nil {
					t.Fatalf("simulate %v: %v", p, err)
				}
				if lb <= 0 || lb > res.BatchTime {
					t.Errorf("%v: floor %v outside (0, %v]", p, lb, res.BatchTime)
				}
			}
		}
	}
}

// TestVScheduleCappedFloorAdmissibleRandom stresses the cap-aware term of
// the V-schedule floor on randomized tightly-capped plans: caps at or near
// the deadlock floor (Loops) with deep micro-batch counts, where the
// forced-serialization term dominates the warmup/drain chains. The floor
// must stay admissible — the greedy generator's serial-head exemption may
// run a few forwards past the cap, and the bound's capEff margin must
// absorb exactly that — and must never claim exactness.
func TestVScheduleCappedFloorAdmissibleRandom(t *testing.T) {
	c := hw.PaperCluster()
	m := boundModel()
	rng := rand.New(rand.NewSource(1123))
	checked := 0
	for trial := 0; trial < 600 && checked < 80; trial++ {
		pp := 2 << rng.Intn(3) // 2..8
		loops := 1 << rng.Intn(3)
		for pp*loops > m.Layers {
			loops /= 2
		}
		// Tight caps: the deadlock floor and a couple of pairs above it,
		// kept below the default N_PP so the cap-aware term can bind.
		capSeq := loops + rng.Intn(3)
		p := core.Plan{Method: core.VSchedule,
			DP: 1 << rng.Intn(2), PP: pp, TP: 1 << rng.Intn(2),
			MicroBatch: 1 + rng.Intn(2),
			NumMicro:   pp * (2 + rng.Intn(6)), // deep: many micro-batches per cap slot
			Loops:      loops, Sequence: capSeq,
			OverlapDP: true, OverlapPP: true}
		if p.GPUs() > c.NumGPUs() || p.Validate(m) != nil {
			continue
		}
		checked++
		lb, exact := LowerBound(c, m, p, nil)
		if exact {
			t.Errorf("%v: V-schedule has no tier-2 hook and must not claim exactness", p)
		}
		res, err := engine.Simulate(c, m, p)
		if err != nil {
			t.Fatalf("simulate %v: %v", p, err)
		}
		if lb <= 0 || lb > res.BatchTime {
			t.Errorf("%v: capped floor %v outside (0, %v] (diff %v)",
				p, lb, res.BatchTime, lb-res.BatchTime)
		}
	}
	if checked < 40 {
		t.Fatalf("only %d randomized capped plans checked", checked)
	}
	t.Logf("%d randomized tightly-capped V-schedule plans checked", checked)
}
