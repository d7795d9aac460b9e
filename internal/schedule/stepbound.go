package schedule

import (
	"fmt"
	"sync"

	"bfpp/internal/core"
	"bfpp/internal/des"
)

// This file implements the simulator: a replay of a plan's checked device
// programs — the ones Cached memoizes — that the search's tier 2 prices
// candidates with (replayLB, BaPipe-style pruning, see internal/analytic)
// and that the engine simulates plans with (Schedule.Replay). It also holds
// the generators' cheap tier-1 floors.
//
// The replay maps every operation onto per-device in-order streams laid
// out by SideStreams: compute operations always ride the device's compute
// stream; pipeline transfers ride a separate per-device pp stream when the
// implementation overlaps them (inline on the compute stream otherwise,
// paying the blocking stall); and data-parallel restores/reductions ride a
// separate dp stream when overlapped. Every task obeys the recurrence of
// an in-order stream: start = max(stream frontier, latest dependency
// finish), end = start + duration, evaluated with one cursor per stream.
// Because tier 2 and the simulation run this one function, a tier-2 price
// is the simulated batch time bit for bit — for non-overlapped and
// overlapped plans alike — which is what lets the search skip the
// simulation of a candidate it prices. A simulation records every task's
// span in pooled per-op records and sums them into a Summary (the
// makespan and each kind's busy time) in one walk; it lays the spans out
// into a des.Timeline only when the caller asks for one, so the search's
// simulations allocate no span array. The engine's tests check the replay
// against a task-graph builder run on des.Sim.RunReference, which shares
// no code with it.

// StepCosts holds the engine's derived per-operation durations for one
// (cluster, model, plan) configuration, in seconds. engine.DeriveCosts is
// the single producer, so analytic bounds price plans with exactly the
// constants the simulation charges.
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

// SideStreams is the simulator's stream layout: besides its compute
// stream, each device gets a pipeline-transfer stream (pp) iff the
// implementation overlaps pipeline transfers and the plan is pipelined
// with PP > 1, and a data-parallel stream (dp) iff it overlaps
// data-parallel work and the plan has some (DP > 1, or DP-FS restores).
// Every operation without its own stream rides the compute stream. The
// replay, the engine's stream accounting and its test oracle all read the
// layout from here.
func SideStreams(p core.Plan) (pp, dp bool) {
	pp = p.OverlapPP && p.Method.Pipelined() && p.PP > 1
	dp = p.OverlapDP && (p.DP > 1 || p.Sharding == core.DPFS)
	return pp, dp
}

// replayScratch pools the replay's working storage — the per-(stage,
// micro) end-time tables and the per-device cursor state — so pricing a
// candidate allocates nothing in the steady state. The replay runs for
// every candidate the tier-1 floor fails to prune, on the sweep's hot
// path, which is why the scratch is pooled.
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

	// Per-op records, sized only when recording: times[r][k] holds the
	// span of device r's op k and of the transfer it sends, if any. next
	// is layout's per-stream fill cursor.
	times [][]opTimes
	next  []int
}

// opTimes records when one op ran, and when the transfer it sends ran.
type opTimes struct {
	start, end, xStart, xEnd float64
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

// initReplay resets the cursor state in sc for replaying the device
// programs progs of p, leaving sc ready for runReplay; with record it also
// sizes the per-op records.
func initReplay(sc *replayScratch, p core.Plan, progs []Program, record bool) {
	nDev := len(progs)
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

	if record {
		times := growScratch(&sc.times, nDev)
		for r, prog := range progs {
			growScratch(&times[r], len(prog))
		}
	}
}

// runReplay replays progs, one program per device, from the state
// initReplay left in sc: the three per-device stream cursors execute their
// ops under the recurrence of in-order streams (start = max(stream
// frontier, latest dependency finish), end = start + duration), which is a
// pure dataflow fixpoint — the final frontiers are independent of the
// order the cursors drain in. Rounds sweep the devices in alternating
// directions: a dependency chain running toward lower ranks then crosses
// every device in one round of two, not one device per round. With record
// it stores every op's start and end, and its transfer's, in sc's per-op
// records. Once every cursor has reached the end of its program it returns
// the makespan: the latest finish across every stream, since a trailing
// transfer or restore can outlive the optimizer step. It returns false if
// the programs deadlock.
func runReplay(sc *replayScratch, p core.Plan, c StepCosts, progs []Program, record bool) (float64, bool) {
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
	times := sc.times
	// lastRestore finds the restore a compute op consumes: the one for the
	// exact (stage, micro) if one exists, else the per-batch restore
	// (micro -1, stored at slot 0).
	lastRestore := func(tbl []int, stage, micro int) int {
		if i := tbl[stage*(nm+1)+micro+1]; i >= 0 {
			return i
		}
		return tbl[stage*(nm+1)]
	}

	// compDrain advances rank r's compute stream as far as cross-stream
	// dependencies allow, like an in-order stream drains.
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
				var end float64
				inline := false
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
					end = start + c.Fwd
					tComp[r] = end
					fwdEnd[idx(op.Stage, op.Micro)] = end
					inline = op.Stage < nStages-1 && cross(op.Stage, op.Stage+1) && !ppStream
					if inline {
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
					end = start + c.Bwd
					tComp[r] = end
					bwdEnd[idx(op.Stage, op.Micro)] = end
					inline = op.Stage > 0 && cross(op.Stage-1, op.Stage) && !ppStream
					if inline {
						tComp[r] = end + x
						inB[idx(op.Stage-1, op.Micro)] = tComp[r]
					}
				}
				if record {
					t := &times[r][kComp[r]]
					t.start, t.end = start, end
					if inline {
						t.xStart, t.xEnd = end, tComp[r]
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
					if record {
						times[r][kComp[r]] = opTimes{start: tComp[r], end: tComp[r] + c.Restore}
					}
					tComp[r] += c.Restore
				}
			case Reduce:
				if dpStream {
					reduceSeen[r]++
				} else {
					if record {
						times[r][kComp[r]] = opTimes{start: tComp[r], end: tComp[r] + c.Reduce}
					}
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
				if record {
					times[r][kComp[r]] = opTimes{start: start, end: tComp[r]}
				}
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
				if record {
					times[r][kPP[r]].xStart, times[r][kPP[r]].xEnd = start, end
				}
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
				if record {
					times[r][kPP[r]].xStart, times[r][kPP[r]].xEnd = start, end
				}
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
				if record {
					times[r][kDP[r]] = opTimes{start: start, end: end}
				}
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
				if record {
					times[r][kDP[r]] = opTimes{start: start, end: end}
				}
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

	for round := 0; ; round++ {
		progressed := false
		done := true
		for i := range progs {
			r := i
			if round&1 == 1 {
				r = len(progs) - 1 - i
			}
			if compDrain(r) {
				progressed = true
			}
			if ppStream && ppDrain(r) {
				progressed = true
			}
			if dpStream && dpDrain(r) {
				progressed = true
			}
			if n := len(progs[r]); kComp[r] < n || (ppStream && kPP[r] < n) || (dpStream && kDP[r] < n) {
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
	e := cached(p)
	if e.err != nil {
		return 0, false
	}
	progs := e.devices
	sc := replayScratchPool.Get().(*replayScratch)
	defer replayScratchPool.Put(sc)
	initReplay(sc, p, progs, false)
	return runReplay(sc, p, c, progs, false)
}

// Summary is what a simulation reads off a finished replay: the batch
// time and each kind's busy time, equal bit for bit to what des.Timeline's
// BusyTime and ClassTime give over the replay's laid-out spans. A kind
// with its own side stream (SideStreams) reports its worst device's stream
// sum; a kind riding the compute streams reports its class sum over every
// device, in span order.
type Summary struct {
	// Makespan is the latest finish across every stream: the batch time.
	Makespan float64
	// Compute is the busiest compute stream's total span time, counting
	// the transfers, reductions and restores that ride it.
	Compute float64
	// PP is the busiest pp stream's total span time or, when transfers
	// ride the compute streams, the total time of every transfer.
	PP float64
	// DP is the busiest dp stream's total span time or, when they ride
	// the compute streams, the total time of every reduction plus that of
	// every restore.
	DP float64
}

// Replay simulates one batch of the checked schedule s under the costs c:
// it runs the replay tier 2 prices with, recording every task's span in
// pooled per-op records, and returns their Summary. With timeline set it
// also returns the timeline; otherwise the timeline is nil and the replay
// allocates nothing in the steady state. One task stands for each op of
// s's programs and one for each cross-device transfer. The timeline lays
// the spans out the way the discrete-event reference executor does, with
// one stream per device and kind: the compute streams of devices 0..n-1,
// then their pp streams and then their dp streams where SideStreams adds
// them. Each stream's spans are in queue order. Task ids follow a
// task-graph builder's creation order: device by device, in program order,
// with each transfer right after its producer. Stream names are left to
// the caller. A replay that cannot finish returns an error; checked
// programs never stall it.
func (s *Schedule) Replay(c StepCosts, timeline bool) (Summary, *des.Timeline, error) {
	p, progs := s.Plan, s.Devices
	sc := replayScratchPool.Get().(*replayScratch)
	defer replayScratchPool.Put(sc)
	initReplay(sc, p, progs, true)
	makespan, ok := runReplay(sc, p, c, progs, true)
	if !ok {
		for r, prog := range progs {
			if k := sc.kComp[r]; k < len(prog) {
				return Summary{}, nil, fmt.Errorf("schedule: %v: replay deadlocked: device %d blocked at %v", p, r, prog[k])
			}
		}
		return Summary{}, nil, fmt.Errorf("schedule: %v: replay deadlocked", p)
	}
	sum := summarize(sc, p, progs, makespan)
	if !timeline {
		return sum, nil, nil
	}
	return sum, layout(sc, p, progs, makespan), nil
}

// transfers reports whether op sends a cross-device transfer — a forward
// feeding the next stage or a backward feeding the previous one, hosted on
// another device — in a plan of nStages stages whose stage-to-device map
// is owner. send is false for a plan that sends none (one that is not
// pipelined or has PP 1), whose owner is not set up.
func transfers(op Op, send bool, nStages int, owner []int) bool {
	switch {
	case !send:
		return false
	case op.Kind == Forward:
		return op.Stage < nStages-1 && owner[op.Stage] != owner[op.Stage+1]
	case op.Kind == Backward:
		return op.Stage > 0 && owner[op.Stage-1] != owner[op.Stage]
	}
	return false
}

// summarize sums the per-op records of a finished replay into its Summary
// in one walk, in layout's order: device by device, in program order, each
// transfer right after its producer. Each stream's spans are contiguous in
// that layout, and the compute streams come first, device by device, so
// every sum adds the same durations in the same order as des.Timeline's
// BusyTime and ClassTime over the laid-out spans: the Summary is bit for
// bit what the timeline would give.
func summarize(sc *replayScratch, p core.Plan, progs []Program, makespan float64) Summary {
	nStages := p.NumStages()
	send := p.Method.Pipelined() && p.PP > 1
	ppStream, dpStream := SideStreams(p)
	sum := Summary{Makespan: makespan}
	// Class sums over every device, read when the class rides the compute
	// streams.
	var sends, reduces, restores float64
	for r, prog := range progs {
		times := sc.times[r][:len(prog)]
		var comp, pp, dp float64 // device r's stream sums
		for k, op := range prog {
			t := &times[k]
			d := t.end - t.start
			switch op.Kind {
			case Reduce:
				reduces += d
			case Restore:
				restores += d
			}
			if dpStream && (op.Kind == Reduce || op.Kind == Restore) {
				dp += d
			} else {
				comp += d
			}
			if transfers(op, send, nStages, sc.owner) {
				x := t.xEnd - t.xStart
				sends += x
				if ppStream {
					pp += x
				} else {
					comp += x
				}
			}
		}
		if comp > sum.Compute {
			sum.Compute = comp
		}
		if pp > sum.PP {
			sum.PP = pp
		}
		if dp > sum.DP {
			sum.DP = dp
		}
	}
	if !ppStream {
		sum.PP = sends
	}
	if !dpStream {
		sum.DP = reduces + restores
	}
	return sum
}

// spanClass is the timeline class of each op kind.
var spanClass = [...]des.Class{Forward: des.ClassFwd, Backward: des.ClassBwd,
	Restore: des.ClassRestore, Reduce: des.ClassReduce, Optimize: des.ClassOpt}

// layout lays the per-op records of a finished replay out as Replay
// documents.
func layout(sc *replayScratch, p core.Plan, progs []Program, makespan float64) *des.Timeline {
	nDev := len(progs)
	nStages := p.NumStages()
	send := p.Method.Pipelined() && p.PP > 1
	ppStream, dpStream := SideStreams(p)
	ppBase, dpBase := nDev, nDev*(1+btoi(ppStream))
	nStreams := dpBase + nDev*btoi(dpStream)
	opStream := func(r int, k Kind) int {
		if dpStream && (k == Restore || k == Reduce) {
			return dpBase + r
		}
		return r
	}
	sendStream := func(r int) int {
		if ppStream {
			return ppBase + r
		}
		return r
	}

	offsets := make([]int, nStreams+1)
	for r, prog := range progs {
		for _, op := range prog {
			offsets[opStream(r, op.Kind)+1]++
			if transfers(op, send, nStages, sc.owner) {
				offsets[sendStream(r)+1]++
			}
		}
	}
	for st := 0; st < nStreams; st++ {
		offsets[st+1] += offsets[st]
	}
	spans := make([]des.Span, offsets[nStreams])
	next := growScratch(&sc.next, nStreams)
	copy(next, offsets)
	var id des.TaskID
	for r, prog := range progs {
		for k, op := range prog {
			t := sc.times[r][k]
			st := opStream(r, op.Kind)
			spans[next[st]] = des.Span{Task: id, Stream: des.StreamID(st), Class: spanClass[op.Kind],
				Stage: op.Stage, Micro: op.Micro, Start: t.start, End: t.end}
			next[st]++
			id++
			if transfers(op, send, nStages, sc.owner) {
				st := sendStream(r)
				spans[next[st]] = des.Span{Task: id, Stream: des.StreamID(st), Class: des.ClassSend,
					Stage: op.Stage, Micro: op.Micro, Start: t.xStart, End: t.xEnd}
				next[st]++
				id++
			}
		}
	}
	return des.NewIndexedTimeline(spans, offsets, makespan)
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
