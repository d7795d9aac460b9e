package analytic

// Branch-and-bound support for the Appendix E grid search (BaPipe-style:
// prune the configuration space with analytic performance models before
// simulating). The package exposes the two tiers of the search's pricing
// cascade. Floor is tier 1: a cheap O(1)-ish admissible lower bound — the
// maximum of the placement-generic floor (per-device compute, pipeline
// warm-up, single-micro-batch latency, exposed communication for
// non-overlapped implementations) and the generator's Traits.StepFloor
// hook — priced for every enumerated candidate. LowerBound is tier 2: the
// generator's Traits.StepLB hook, which for every generator registering
// the shared replay hook runs the simulator's own replay of the plan's
// checked device programs (so it equals the simulated batch time bit for
// bit, overlapped implementations included), paid only when the floor
// fails to prune; a generator with no tier-2 hook (the V-schedule) gets
// its floor as the final bound. internal/search uses the bounds to order
// candidates cheapest-first and to skip simulations that provably cannot
// beat the incumbent.

import (
	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// LowerBound returns an admissible lower bound on the simulated batch time
// of (c, m, p) under the engine calibration par (nil means
// engine.Defaults()), and whether the bound is exact — equal, bit for bit,
// to engine.SimulateOpts' BatchTime, which holds for every plan whose
// generator registers the replay hook (all the paper methods plus
// WS-1F1B, overlapped or not; the V-schedule reports a floor). It is
// total over plans with positive sizes: one Plan.Validate rejects
// (NumMicro < PP, say), which has no checked schedule, gets its finite,
// positive floor, reported not exact.
func LowerBound(c hw.Cluster, m model.Transformer, p core.Plan, par *engine.Params) (lb float64, exact bool) {
	return LowerBoundCached(c, m, p, par, nil)
}

// LowerBoundCached is LowerBound with a cache shared by the candidates of
// one pricing group, handed to the generator's StepLBCached hook when one
// is registered. No generator registers one, so it returns exactly
// LowerBound's result; it stays for the benchmark harness under
// bfppbench/, which calls it.
func LowerBoundCached(c hw.Cluster, m model.Transformer, p core.Plan, par *engine.Params, rc *schedule.ReplayCache) (lb float64, exact bool) {
	pr := engine.Defaults()
	if par != nil {
		pr = *par
	}
	costs := engine.DeriveCosts(c, m, p, pr)
	tr := schedule.TraitsOf(p.Method)
	var h float64
	switch {
	case tr.StepLBCached != nil:
		var ok bool
		if h, ok = tr.StepLBCached(p, costs, rc); ok {
			// The replay IS the simulated time; the floors cannot improve
			// on it and are not computed at all.
			return h, true
		}
	case tr.StepLB != nil:
		var ok bool
		if h, ok = tr.StepLB(p, costs); ok {
			return h, true
		}
	}
	if f := floorOf(p, costs, tr); f > h {
		return f, false
	}
	return h, false
}

// Floor is the cascade's tier-1 price: the cheap admissible lower bound on
// the simulated batch time, with no schedule replay — the maximum of the
// placement-generic floor and the generator's StepFloor hook. It never
// exceeds LowerBound (both are admissible and LowerBound's replay is the
// exact time when it applies), so a candidate the floor already prunes
// needs no tier-2 pricing.
func Floor(c hw.Cluster, m model.Transformer, p core.Plan, par *engine.Params) float64 {
	pr := engine.Defaults()
	if par != nil {
		pr = *par
	}
	costs := engine.DeriveCosts(c, m, p, pr)
	return floorOf(p, costs, schedule.TraitsOf(p.Method))
}

// floorOf maximizes the placement-generic floor with the generator's
// registered cheap floor.
func floorOf(p core.Plan, costs schedule.StepCosts, tr schedule.Traits) float64 {
	f := genericFloor(p, costs)
	if tr.StepFloor != nil {
		if v := tr.StepFloor(p, costs); v > f {
			f = v
		}
	}
	return f
}

// genericFloor is the trait-free admissible lower bound: the maximum of
//
//   - the worst device's stream-busy time: its compute operations, plus the
//     pipeline transfers and data-parallel operations that ride the compute
//     stream when the implementation does not overlap them, plus the
//     optimizer step (and the exposed tail reduction when reductions
//     overlap: the optimizer still waits for the one issued after the last
//     backward);
//   - the pipeline warm-up floor: no operation of the most-downstream
//     device can start before one micro-batch has traversed every earlier
//     stage, after which the device still executes its whole program;
//   - the single-micro-batch latency: one micro-batch's full forward and
//     backward chain through every stage and cross-device boundary.
//
// All terms are evaluated with plain arithmetic and then shaved by
// schedule.BoundSlack (see schedule.StepCosts' replay for the
// chained-addition rounding argument), so the result never exceeds the
// simulated time.
func genericFloor(p core.Plan, c schedule.StepCosts) float64 {
	nm := p.NumMicro
	hosted := p.Loops // stages per device, pipelined or not
	compute := float64(nm*hosted) * (c.Fwd + c.Bwd)
	pip := p.Method.Pipelined() && p.PP > 1
	x := c.Transfer
	if !p.OverlapPP {
		x += c.PPStall
	}
	hasDP := p.DP > 1 || p.Sharding == core.DPFS
	dpInline := !p.OverlapDP && hasDP

	// Per-device floor of the data-parallel work on the compute stream:
	// every generator issues at least one reduction per hosted stage when
	// DP > 1, and at least one restore per hosted stage under DP-FS.
	var dpBusy float64
	if dpInline {
		if p.DP > 1 {
			dpBusy += float64(hosted) * c.Reduce
		}
		if p.Sharding == core.DPFS {
			dpBusy += float64(hosted) * c.Restore
		}
	}
	var tail float64
	if !dpInline && p.DP > 1 {
		tail = c.Reduce // exposed: the optimizer waits for the last reduce
	}

	ops := 4*nm*hosted + 4*p.PP + 16
	best := compute + dpBusy + tail + c.Opt

	if pip {
		nStages := p.Stages()
		owner := make([]int, nStages)
		for s := range owner {
			owner[s] = p.StageDevice(s)
		}
		// Worst-device busy including the transfers parked on its compute
		// stream (non-overlapped implementations only).
		if !p.OverlapPP {
			sends := make([]int, p.PP)
			for s := 0; s < nStages; s++ {
				if s+1 < nStages && owner[s+1] != owner[s] {
					sends[owner[s]] += nm // forward transfers out of stage s
				}
				if s > 0 && owner[s-1] != owner[s] {
					sends[owner[s]] += nm // backward transfers out of stage s
				}
			}
			worst := 0
			for _, n := range sends {
				if n > worst {
					worst = n
				}
			}
			// No exposed-reduction tail here: an overlapped reduction can
			// run concurrently with the trailing transfers, so only the
			// stream-busy ops and the optimizer may be summed.
			if v := compute + float64(worst)*x + dpBusy + c.Opt; v > best {
				best = v
			}
		}
		// Warm-up floor: the device whose earliest stage is deepest cannot
		// start before the chain reaching it, and still runs its full
		// compute afterwards.
		minStage := make([]int, p.PP)
		for d := range minStage {
			minStage[d] = nStages
		}
		for s := nStages - 1; s >= 0; s-- {
			minStage[owner[s]] = s
		}
		deepest := 0
		for _, s := range minStage {
			if s > deepest {
				deepest = s
			}
		}
		crossings := 0
		for s := 1; s <= deepest; s++ {
			if owner[s] != owner[s-1] {
				crossings++
			}
		}
		ramp := float64(deepest)*c.Fwd + float64(crossings)*x
		if v := ramp + compute + tail + c.Opt; v > best {
			best = v
		}
		// Single-micro-batch latency.
		total := 0
		for s := 1; s < nStages; s++ {
			if owner[s] != owner[s-1] {
				total++
			}
		}
		chain := float64(nStages)*(c.Fwd+c.Bwd) + float64(2*total)*x + tail + c.Opt
		if chain > best {
			best = chain
		}
	}
	return schedule.BoundSlack(best, ops)
}
