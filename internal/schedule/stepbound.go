package schedule

import (
	"sync"

	"bfpp/internal/core"
)

// This file implements the schedule-side half of the analytic step-time
// bounds (BaPipe-style search pruning, see internal/analytic): a replay
// that prices a plan's checked device programs — the ones Cached memoizes
// and the engine simulates — without running the discrete-event simulator.
//
// The replay mirrors the engine's execution model exactly. The engine maps
// every operation onto per-device in-order streams laid out by
// SideStreams: compute operations always ride the device's compute stream;
// pipeline transfers ride a separate per-device pp stream when the
// implementation overlaps them (inline on the compute stream otherwise,
// paying the blocking stall); and data-parallel restores/reductions ride a
// separate dp stream when overlapped. Every task obeys the same recurrence
// the DES evaluates: start = max(stream frontier, latest dependency
// finish), end = start + duration. Replaying that recurrence over the
// programs with one cursor per stream reproduces the DES makespan bit for
// bit — for non-overlapped and overlapped plans alike — which is what lets
// the search treat the bound as the exact simulated time and skip the
// simulation entirely.

// StepCosts holds the engine's derived per-operation durations for one
// (cluster, model, plan) configuration, in seconds. engine.DeriveCosts is
// the single producer, so analytic bounds price plans with exactly the
// constants the simulator charges.
type StepCosts struct {
	// Fwd and Bwd are the per-stage per-micro-batch compute durations
	// (kernel launch included).
	Fwd, Bwd float64
	// Transfer is the pipeline-parallel transfer wire time.
	Transfer float64
	// PPStall is the extra per-message blocking stall paid when transfers
	// ride the compute stream (non-overlapped implementations).
	PPStall float64
	// Reduce is the per-stage gradient reduction time (zero when DP == 1).
	Reduce float64
	// Restore is the per-stage DP-FS weight reconstruction time.
	Restore float64
	// Opt is the optimizer step time.
	Opt float64
}

// SideStreams is the engine's stream layout: besides its compute stream,
// each device gets a pipeline-transfer stream (pp) iff the implementation
// overlaps pipeline transfers and the plan is pipelined with PP > 1, and a
// data-parallel stream (dp) iff it overlaps data-parallel work and the
// plan has some (DP > 1, or DP-FS restores). Every operation without its
// own stream rides the compute stream. The engine's builder and the replay
// both read the layout from here.
func SideStreams(p core.Plan) (pp, dp bool) {
	pp = p.OverlapPP && p.Method.Pipelined() && p.PP > 1
	dp = p.OverlapDP && (p.DP > 1 || p.Sharding == core.DPFS)
	return pp, dp
}

// replayScratch pools the replay's working storage — the per-(stage,
// micro) end-time tables and the per-device cursor state — so pricing a
// candidate allocates nothing in the steady state. The replay runs for
// every candidate the tier-1 floor fails to prune, on the sweep's hot
// path, which is why the scratch is pooled like the engine's builder
// scratch.
type replayScratch struct {
	owner []int

	fwdEnd, bwdEnd, inF, inB []float64
	tComp, tPP, tDP, maxRed  []float64
	kComp, kPP, kDP          []int
	reduceDone, reduceSeen   []int
	restoreSeenC             []int
	restoreIdxC, restoreIdxD []int
	bwdSeenD                 []bool
	restoreEnd               [][]float64
	consumers                [][]int
}

var replayScratchPool = sync.Pool{New: func() any { return &replayScratch{} }}

// growScratch resizes a reusable buffer to length n, reallocating only when
// the retained capacity is too small. Contents are unspecified; callers
// clear what they need.
func growScratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// initReplay resets the cursor state in sc for replaying nDev device
// programs of p, leaving sc ready for runReplay.
func initReplay(sc *replayScratch, p core.Plan, nDev int) {
	nStages := p.NumStages()
	nm := p.NumMicro
	_, dpStream := SideStreams(p)

	if p.Method.Pipelined() && p.PP > 1 {
		owner := growScratch(&sc.owner, nStages)
		for s := range owner {
			owner[s] = p.StageDevice(s)
		}
	}

	nk := nStages * nm
	// Compute-op and inbound-transfer finish times per (stage, micro);
	// negative = not yet produced. inF feeds Forward(stage, micro), inB
	// feeds Backward.
	fwdEnd := growScratch(&sc.fwdEnd, nk)
	bwdEnd := growScratch(&sc.bwdEnd, nk)
	inF := growScratch(&sc.inF, nk)
	inB := growScratch(&sc.inB, nk)
	for i := 0; i < nk; i++ {
		fwdEnd[i], bwdEnd[i], inF[i], inB[i] = -1, -1, -1, -1
	}

	tComp := growScratch(&sc.tComp, nDev) // per-device stream frontiers
	tPP := growScratch(&sc.tPP, nDev)
	tDP := growScratch(&sc.tDP, nDev)
	kComp := growScratch(&sc.kComp, nDev) // per-device per-stream cursors
	kPP := growScratch(&sc.kPP, nDev)
	kDP := growScratch(&sc.kDP, nDev)
	maxReduceEnd := growScratch(&sc.maxRed, nDev)
	reduceDone := growScratch(&sc.reduceDone, nDev) // reduces executed by the dp cursor
	reduceSeen := growScratch(&sc.reduceSeen, nDev) // reduces passed by the compute cursor
	for r := 0; r < nDev; r++ {
		tComp[r], tPP[r], tDP[r], maxReduceEnd[r] = 0, 0, 0, 0
		kComp[r], kPP[r], kDP[r] = 0, 0, 0
		reduceDone[r], reduceSeen[r] = 0, 0
	}

	// Restore bookkeeping, needed only when restores ride a separate dp
	// stream: dependencies are then cross-stream instead of being covered
	// by the compute frontier. Restores are identified by their per-device
	// creation index; stages belong to exactly one device, so the
	// (stage, micro) -> latest-restore tables can be shared across devices.
	// The compute cursor keeps its own table (a compute op's restore
	// dependency is fixed by the restores preceding it in program order,
	// which is what the cursor's scan position models) and the dp cursor
	// another, because the cursors advance independently.
	if dpStream {
		restoreIdxC := growScratch(&sc.restoreIdxC, nStages*(nm+1))
		restoreIdxD := growScratch(&sc.restoreIdxD, nStages*(nm+1))
		for i := range restoreIdxC {
			restoreIdxC[i], restoreIdxD[i] = -1, -1
		}
		restoreEnd := growScratch(&sc.restoreEnd, nDev)
		consumers := growScratch(&sc.consumers, nDev)
		restoreSeenC := growScratch(&sc.restoreSeenC, nDev)
		bwdSeenD := growScratch(&sc.bwdSeenD, nk)
		for r := 0; r < nDev; r++ {
			restoreEnd[r] = restoreEnd[r][:0]
			consumers[r] = consumers[r][:0]
			restoreSeenC[r] = 0
		}
		for i := range bwdSeenD {
			bwdSeenD[i] = false
		}
	}
}

// runReplay replays progs, one program per device, from the state
// initReplay left in sc: the three per-device stream cursors execute their
// ops under the same recurrence the DES evaluates (start = max(stream
// frontier, latest dependency finish)), which is a pure dataflow fixpoint
// — the final frontiers are independent of the order the cursors drain
// in. Once every cursor has reached the end of its program it returns the
// makespan: the latest finish across every stream, since a trailing
// transfer or restore can outlive the optimizer step. It returns false if
// the programs deadlock.
func runReplay(sc *replayScratch, p core.Plan, c StepCosts, progs []Program) (float64, bool) {
	nStages := p.NumStages()
	nm := p.NumMicro
	send := p.Method.Pipelined() && p.PP > 1
	ppStream, dpStream := SideStreams(p)
	x := c.Transfer
	if !ppStream {
		x += c.PPStall // transfers ride the compute stream, paying the stall
	}

	owner := sc.owner
	cross := func(a, b int) bool { return send && owner[a] != owner[b] }
	idx := func(stage, micro int) int { return stage*nm + micro }
	fwdEnd, bwdEnd, inF, inB := sc.fwdEnd, sc.bwdEnd, sc.inF, sc.inB
	tComp, tPP, tDP := sc.tComp, sc.tPP, sc.tDP
	kComp, kPP, kDP := sc.kComp, sc.kPP, sc.kDP
	maxReduceEnd := sc.maxRed
	reduceDone, reduceSeen := sc.reduceDone, sc.reduceSeen
	restoreIdxC, restoreIdxD := sc.restoreIdxC, sc.restoreIdxD
	restoreEnd, consumers := sc.restoreEnd, sc.consumers
	restoreSeenC, bwdSeenD := sc.restoreSeenC, sc.bwdSeenD
	// lastRestore mirrors the builder's lastRestoreFor: the restore for the
	// exact (stage, micro) if one exists, else the per-batch restore
	// (micro -1, stored at slot 0).
	lastRestore := func(tbl []int, stage, micro int) int {
		if i := tbl[stage*(nm+1)+micro+1]; i >= 0 {
			return i
		}
		return tbl[stage*(nm+1)]
	}

	// compDrain advances rank r's compute stream as far as cross-stream
	// dependencies allow, exactly like the DES drains an in-order stream.
	compDrain := func(r int) bool {
		progressed := false
		prog := progs[r]
		for kComp[r] < len(prog) {
			op := prog[kComp[r]]
			switch op.Kind {
			case Forward, Backward:
				start := tComp[r]
				if dpStream {
					if ri := lastRestore(restoreIdxC, op.Stage, op.Micro); ri >= 0 {
						if ri >= len(restoreEnd[r]) {
							return progressed // restore not yet executed
						}
						if e := restoreEnd[r][ri]; e > start {
							start = e
						}
					}
				}
				if op.Kind == Forward {
					if op.Stage > 0 && cross(op.Stage-1, op.Stage) {
						in := inF[idx(op.Stage, op.Micro)]
						if in < 0 {
							return progressed // inbound transfer pending
						}
						if in > start {
							start = in
						}
					}
					end := start + c.Fwd
					tComp[r] = end
					fwdEnd[idx(op.Stage, op.Micro)] = end
					if op.Stage < nStages-1 && cross(op.Stage, op.Stage+1) && !ppStream {
						// Inline send: the transfer occupies the compute
						// stream right after its producer.
						tComp[r] = end + x
						inF[idx(op.Stage+1, op.Micro)] = tComp[r]
					}
				} else {
					if op.Stage < nStages-1 && cross(op.Stage, op.Stage+1) {
						in := inB[idx(op.Stage, op.Micro)]
						if in < 0 {
							return progressed
						}
						if in > start {
							start = in
						}
					}
					end := start + c.Bwd
					tComp[r] = end
					bwdEnd[idx(op.Stage, op.Micro)] = end
					if op.Stage > 0 && cross(op.Stage-1, op.Stage) && !ppStream {
						tComp[r] = end + x
						inB[idx(op.Stage-1, op.Micro)] = tComp[r]
					}
				}
			case Restore:
				if dpStream {
					// Creation-order bookkeeping only: later compute ops of
					// this stage depend on this restore's index.
					restoreIdxC[op.Stage*(nm+1)+op.Micro+1] = restoreSeenC[r]
					restoreSeenC[r]++
				} else {
					// Rides this stream; same-stream dependencies resolve
					// before the frontier, so it just occupies the stream.
					tComp[r] += c.Restore
				}
			case Reduce:
				if dpStream {
					reduceSeen[r]++
				} else {
					tComp[r] += c.Reduce
				}
			case Optimize:
				// Depends on every reduction before it, which Check's
				// single-final-Optimize invariant makes every reduction
				// of the device.
				if dpStream && reduceDone[r] < reduceSeen[r] {
					return progressed
				}
				start := tComp[r]
				if maxReduceEnd[r] > start {
					start = maxReduceEnd[r]
				}
				tComp[r] = start + c.Opt
			}
			kComp[r]++
			progressed = true
		}
		return progressed
	}

	// ppDrain advances rank r's pipeline-transfer stream: one send task per
	// cross-device boundary crossing, enqueued in program order right after
	// its producing compute op, depending on it.
	ppDrain := func(r int) bool {
		progressed := false
		prog := progs[r]
		for kPP[r] < len(prog) {
			op := prog[kPP[r]]
			if op.Kind == Forward && op.Stage < nStages-1 && cross(op.Stage, op.Stage+1) {
				e := fwdEnd[idx(op.Stage, op.Micro)]
				if e < 0 {
					return progressed // producer not yet executed
				}
				start := tPP[r]
				if e > start {
					start = e
				}
				end := start + x
				tPP[r] = end
				inF[idx(op.Stage+1, op.Micro)] = end
			} else if op.Kind == Backward && op.Stage > 0 && cross(op.Stage-1, op.Stage) {
				e := bwdEnd[idx(op.Stage, op.Micro)]
				if e < 0 {
					return progressed
				}
				start := tPP[r]
				if e > start {
					start = e
				}
				end := start + x
				tPP[r] = end
				inB[idx(op.Stage-1, op.Micro)] = end
			}
			kPP[r]++
			progressed = true
		}
		return progressed
	}

	// dpDrain advances rank r's data-parallel stream: restores (depending,
	// via double buffering, on the last consumer of the buffer two restores
	// back) and reductions (depending on the backward that produced their
	// gradients).
	dpDrain := func(r int) bool {
		progressed := false
		prog := progs[r]
		for kDP[r] < len(prog) {
			op := prog[kDP[r]]
			switch op.Kind {
			case Forward, Backward:
				// Creation-order bookkeeping: the op consumes the latest
				// restore of its stage, and backwards feed later reduces.
				if ri := lastRestore(restoreIdxD, op.Stage, op.Micro); ri >= 0 {
					consumers[r][ri] = idx(op.Stage, op.Micro)*2 + btoi(op.Kind == Backward)
				}
				if op.Kind == Backward {
					bwdSeenD[idx(op.Stage, op.Micro)] = true
				}
			case Restore:
				i := len(restoreEnd[r])
				start := tDP[r]
				if i >= 2 {
					// Double buffering: this restore may only start once the
					// buffer two restores back has been consumed.
					if ref := consumers[r][i-2]; ref >= 0 {
						e := fwdEnd[ref/2]
						if ref&1 == 1 {
							e = bwdEnd[ref/2]
						}
						if e < 0 {
							return progressed // consumer not yet executed
						}
						if e > start {
							start = e
						}
					}
				}
				end := start + c.Restore
				tDP[r] = end
				restoreIdxD[op.Stage*(nm+1)+op.Micro+1] = i
				restoreEnd[r] = append(restoreEnd[r], end)
				consumers[r] = append(consumers[r], -1)
			case Reduce:
				start := tDP[r]
				mi := op.Micro
				if mi < 0 {
					mi = nm - 1 // per-batch reduce waits for the last backward
				}
				if bwdSeenD[idx(op.Stage, mi)] {
					e := bwdEnd[idx(op.Stage, mi)]
					if e < 0 {
						return progressed
					}
					if e > start {
						start = e
					}
				}
				end := start + c.Reduce
				tDP[r] = end
				if end > maxReduceEnd[r] {
					maxReduceEnd[r] = end
				}
				reduceDone[r]++
			}
			kDP[r]++
			progressed = true
		}
		return progressed
	}

	for {
		progressed := false
		done := true
		for r, prog := range progs {
			if compDrain(r) {
				progressed = true
			}
			if ppStream && ppDrain(r) {
				progressed = true
			}
			if dpStream && dpDrain(r) {
				progressed = true
			}
			if n := len(prog); kComp[r] < n || (ppStream && kPP[r] < n) || (dpStream && kDP[r] < n) {
				done = false
			}
		}
		if done {
			break
		}
		if !progressed {
			return 0, false
		}
	}
	var makespan float64
	for r := range progs {
		for _, t := range [...]float64{tComp[r], tPP[r], tDP[r]} {
			if t > makespan {
				makespan = t
			}
		}
	}
	return makespan, true
}

// replayLB is the tier-2 StepLB hook shared by every generator whose
// programs the replay prices: the exact multi-stream replay of the plan's
// checked programs, read from the schedule memo cache. The replay never
// deadlocks on checked programs; a plan with no checked schedule (one
// Generate or Check rejects) is priced as not exact, which leaves the
// caller's floor as the bound.
func replayLB(p core.Plan, c StepCosts) (float64, bool) {
	progs, err := programs(p)
	if err != nil {
		return 0, false
	}
	sc := replayScratchPool.Get().(*replayScratch)
	defer replayScratchPool.Put(sc)
	initReplay(sc, p, len(progs))
	return runReplay(sc, p, c, progs)
}

// ReplayCache is an empty placeholder kept for callers of LowerBoundCached
// (the benchmark harness under bfppbench/): the replay reads the programs
// the schedule memo cache already holds, so candidates have nothing to
// share, and no generator registers StepLBCached.
type ReplayCache struct{}

// NewReplayCache returns an empty cache.
func NewReplayCache() *ReplayCache { return &ReplayCache{} }

// --- Tier-1 floors. ---

// forwardFirstFloor is the admissible lower bound of the overlapped
// forward-first wrap schedules (breadth-first, GPipe): the warm-up chain to
// the last device, that device's full compute (its program runs every
// forward before any backward), the backward drain chain back to device 0,
// the exposed tail reduction and the optimizer step. It is the tier-1
// StepFloor of both; the replay prices them exactly at tier 2. Plain
// arithmetic can round above the simulator's chained additions by a few
// ulps, so the result is shaved with BoundSlack.
func forwardFirstFloor(p core.Plan, c StepCosts) float64 {
	nm, loops := float64(p.NumMicro), float64(p.Loops)
	compute := nm * loops * (c.Fwd + c.Bwd)
	var ramp, drain float64
	if p.PP > 1 {
		x := c.Transfer
		if !p.OverlapPP {
			x += c.PPStall
		}
		hops := float64(p.PP - 1)
		ramp = hops * (c.Fwd + x)
		drain = hops * (c.Bwd + x)
	}
	tail := c.Opt
	if p.DP > 1 {
		tail += c.Reduce
	}
	return BoundSlack(ramp+compute+drain+tail, p.NumMicro*p.Loops*2+2*p.PP)
}

// vScheduleFloor is the list-schedule-aware warmup/drain floor of the
// vee-placed V-schedule. The V-schedule registers no tier-2 hook, so this
// floor, maximized with the generic one, is its final bound and the search
// simulates its candidates. It exploits two structural facts the
// generic placement floor cannot see: (a) no backward anywhere may start
// before some micro-batch's complete forward chain has reached the last
// stage, after which the device hosting that stage — which, in the vee
// placement, also hosts stage 0 — still executes its entire backward
// workload; and (b) every stage-0 backward additionally waits for the
// backward chain down from the last stage, and all N_mb of them serialize
// on stage 0's device. Both terms are placement-derived dependency chains,
// valid at any in-flight cap (the cap only delays ops further), and are
// shaved by BoundSlack like every plain-arithmetic bound.
func vScheduleFloor(p core.Plan, c StepCosts) float64 {
	nStages := p.Stages()
	nm := float64(p.NumMicro)
	x := c.Transfer
	if !p.OverlapPP {
		x += c.PPStall
	}
	crossings := 0
	prev := p.StageDevice(0)
	for s := 1; s < nStages; s++ {
		d := p.StageDevice(s)
		if d != prev {
			crossings++
		}
		prev = d
	}
	var tail float64
	if p.DP > 1 {
		tail = c.Reduce // exposed: the optimizer waits for the last reduce
	}
	// End of F(last stage, m) for any micro-batch m: the full forward chain.
	ramp := float64(nStages)*c.Fwd + float64(crossings)*x
	// Warm-up term: the last stage's device still runs all its backwards.
	t1 := ramp + nm*float64(p.Loops)*c.Bwd + tail + c.Opt
	// Drain term: the backward chain down to stage 0, then all N_mb
	// stage-0 backwards on its device.
	t2 := ramp + float64(nStages-1)*c.Bwd + float64(crossings)*x + nm*c.Bwd + tail + c.Opt
	best := t1
	if t2 > best {
		best = t2
	}
	// Cap term: the vee placement puts stage 0 and the last stage on the
	// same device, and the list scheduler's priority (lowest micro-batch
	// among ready admissible forwards, all stage-0 forwards ready from the
	// start) makes that device issue the first nm-1 stage-0 forwards before
	// F(0, nm-1). Under the in-flight cap it can hold at most capPairs of
	// them, so by then it has already issued at least nm-1-capPairs
	// backwards (2x forward cost each); the serial-head exemption can lift
	// the cap for at most the head micro-batch's Loops local stages, modeled
	// by widening the cap with +Loops. After F(0, nm-1) the last
	// micro-batch still needs its forward chain up (nStages-1 more stages
	// plus the boundary crossings) and its full backward chain down
	// (nStages backwards plus the crossings again) before the exposed tail.
	// Every term is a dependency- or capacity-forced serialization on that
	// one device, so the sum is admissible at any cap; large caps reduce it
	// below t1/t2 and it simply stops binding.
	capEff := float64(vCap(p) + p.Loops)
	extraB := nm - 1 - capEff
	if extraB < 0 {
		extraB = 0
	}
	t3 := (nm+float64(nStages)-1)*c.Fwd + (extraB+float64(nStages))*c.Bwd +
		2*float64(crossings)*x + tail + c.Opt
	if t3 > best {
		best = t3
	}
	return BoundSlack(best, 2*p.NumMicro*p.Loops+4*nStages+16)
}

// BoundSlack shaves a bound computed with plain (non-chained) float
// arithmetic by a relative margin covering the worst-case rounding
// difference against the simulator's n sequential additions, keeping the
// bound strictly admissible without measurably loosening it. It is shared
// with the generic floor in internal/analytic — the margin is
// load-bearing for admissibility, so there is exactly one copy.
func BoundSlack(v float64, n int) float64 {
	return v * (1 - float64(n+16)*1e-15)
}
