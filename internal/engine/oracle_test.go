package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/des"
	"bfpp/internal/hw"
	"bfpp/internal/memsim"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// The simulator's oracle: SimulateOpts runs the schedule replay
// (schedule.Schedule.Replay), and these tests check it against an
// implementation that shares no code with it. buildTaskGraph assembles a
// plan's task graph on the discrete-event reference executor, one task per
// op and per cross-device transfer with every dependency wired, and
// des.Sim.RunReference executes it.

// buildTaskGraph returns the task graph of sched under costs on a fresh
// simulator. Tasks are created device by device in program order, each
// transfer right after its producer, on the streams schedule.SideStreams
// lays out: every device's compute stream, then its pp stream and its dp
// stream where the plan has them.
func buildTaskGraph(p core.Plan, sched *schedule.Schedule, costs schedule.StepCosts) (sim *des.Sim, compute, pp, dp []des.StreamID) {
	sim = des.New()
	nDev := len(sched.Devices)
	ppSide, dpSide := schedule.SideStreams(p)
	for kind, on := range [...]bool{true, ppSide, dpSide} {
		if !on {
			continue
		}
		ids := make([]des.StreamID, nDev)
		for d := range ids {
			ids[d] = sim.Stream(streamName(kind, d))
		}
		switch kind {
		case 0:
			compute = ids
		case 1:
			pp = ids
		case 2:
			dp = ids
		}
	}

	const none = des.TaskID(-1)
	nStages, nm := p.NumStages(), p.NumMicro
	key := func(stage, micro int) int { return stage*nm + micro }
	// Compute task per (stage, micro), and the transfer feeding it.
	fwdTask := slices.Repeat([]des.TaskID{none}, nStages*nm)
	bwdTask := slices.Clone(fwdTask)
	fwdSend := slices.Clone(fwdTask)
	bwdSend := slices.Clone(fwdTask)
	// transferOutOf returns the key of the op consuming op's output on
	// another device, if any.
	transferOutOf := func(op schedule.Op) (int, bool) {
		if !p.Method.Pipelined() || p.PP == 1 {
			return 0, false
		}
		if op.Kind == schedule.Forward {
			if op.Stage < nStages-1 && p.StageDevice(op.Stage+1) != p.StageDevice(op.Stage) {
				return key(op.Stage+1, op.Micro), true
			}
			return 0, false
		}
		if op.Stage > 0 && p.StageDevice(op.Stage-1) != p.StageDevice(op.Stage) {
			return key(op.Stage-1, op.Micro), true
		}
		return 0, false
	}

	for dev, prog := range sched.Devices {
		comp, sendStream, dpStream := compute[dev], compute[dev], compute[dev]
		if pp != nil {
			sendStream = pp[dev]
		}
		if dp != nil {
			dpStream = dp[dev]
		}
		// The device's restores in order, the last consumer of each (for
		// double buffering) and the latest restore per (stage, micro).
		var restores, restoreConsumer, reduces []des.TaskID
		restoreIdx := map[[2]int]int{}
		lastRestoreFor := func(stage, micro int) (int, bool) {
			if i, ok := restoreIdx[[2]int{stage, micro}]; ok {
				return i, true
			}
			i, ok := restoreIdx[[2]int{stage, -1}] // per-batch restore
			return i, ok
		}
		for _, op := range prog {
			switch op.Kind {
			case schedule.Forward, schedule.Backward:
				class, dur, tasks, sends := des.ClassFwd, costs.Fwd, fwdTask, fwdSend
				if op.Kind == schedule.Backward {
					class, dur, tasks, sends = des.ClassBwd, costs.Bwd, bwdTask, bwdSend
				}
				var deps []des.TaskID
				ri, hasRestore := lastRestoreFor(op.Stage, op.Micro)
				if hasRestore {
					deps = append(deps, restores[ri])
				}
				t := sim.AddTagged(comp, dur, class, op.Stage, op.Micro, deps...)
				tasks[key(op.Stage, op.Micro)] = t
				if hasRestore {
					restoreConsumer[ri] = t
				}
				if next, ok := transferOutOf(op); ok {
					dur := costs.Transfer
					if pp == nil {
						dur += costs.PPStall
					}
					sends[next] = sim.AddTagged(sendStream, dur, des.ClassSend, op.Stage, op.Micro, t)
				}
			case schedule.Restore:
				// Double buffering: this restore may only start once the
				// buffer two restores back has been consumed.
				var deps []des.TaskID
				if n := len(restores); n >= 2 && restoreConsumer[n-2] != none {
					deps = append(deps, restoreConsumer[n-2])
				}
				t := sim.AddTagged(dpStream, costs.Restore, des.ClassRestore, op.Stage, op.Micro, deps...)
				restoreIdx[[2]int{op.Stage, op.Micro}] = len(restores)
				restores = append(restores, t)
				restoreConsumer = append(restoreConsumer, none)
			case schedule.Reduce:
				// A per-batch reduce waits for the stage's last backward.
				micro := op.Micro
				if micro < 0 {
					micro = nm - 1
				}
				var deps []des.TaskID
				if bt := bwdTask[key(op.Stage, micro)]; bt != none {
					deps = append(deps, bt)
				}
				reduces = append(reduces, sim.AddTagged(dpStream, costs.Reduce, des.ClassReduce, op.Stage, op.Micro, deps...))
			case schedule.Optimize:
				sim.AddTagged(comp, costs.Opt, des.ClassOpt, -1, -1, reduces...)
			}
		}
	}
	// Cross-device transfers: the consuming op waits on the transfer, so an
	// in-order compute stream blocks exactly like a synchronous receive.
	for k := range fwdSend {
		for _, w := range [...][2]des.TaskID{{fwdTask[k], fwdSend[k]}, {bwdTask[k], bwdSend[k]}} {
			if w[0] != none && w[1] != none {
				sim.AddDep(w[0], w[1])
			}
		}
	}
	return sim, compute, pp, dp
}

// referenceResult simulates p with the oracle: a freshly generated and
// checked schedule (no memo cache), its task graph run by
// des.Sim.RunReference, and every Result field derived from that timeline.
func referenceResult(c hw.Cluster, m model.Transformer, p core.Plan, par Params) (Result, error) {
	sched, err := schedule.Generate(p)
	if err != nil {
		return Result{}, err
	}
	if err := schedule.Check(sched); err != nil {
		return Result{}, err
	}
	sim, compute, pp, dp := buildTaskGraph(p, sched, DeriveCosts(c, m, p, par))
	tl, err := sim.RunReference()
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Plan:       p,
		BatchTime:  tl.Makespan,
		FlopPerGPU: m.BatchFlopPerGPU(p.MicroBatch, p.NumMicro, p.PP, p.TP),
		Bubble:     p.Bubble(),
		Memory:     memsim.Estimate(m, p),
		Timeline:   tl,
	}
	res.Throughput = res.FlopPerGPU / res.BatchTime
	res.Utilization = res.Throughput / c.GPU.PeakFlops
	for dev := range compute {
		res.ComputeTime = max(res.ComputeTime, tl.BusyTime(compute[dev]))
		if pp != nil {
			res.PPCommTime = max(res.PPCommTime, tl.BusyTime(pp[dev]))
		}
		if dp != nil {
			res.DPCommTime = max(res.DPCommTime, tl.BusyTime(dp[dev]))
		}
	}
	if pp == nil {
		res.PPCommTime = tl.ClassTime(-1, des.ClassSend)
	}
	if dp == nil {
		res.DPCommTime = tl.ClassTime(-1, des.ClassReduce) + tl.ClassTime(-1, des.ClassRestore)
	}
	return res, nil
}

// diffResults reports the first difference between two results: every
// field bit for bit, and every span of their timelines.
func diffResults(got, want Result) error {
	g, w := got, want
	g.Timeline, w.Timeline = nil, nil
	if g != w {
		return fmt.Errorf("result %+v != reference %+v", g, w)
	}
	gt, wt := got.Timeline, want.Timeline
	if (gt == nil) != (wt == nil) {
		return fmt.Errorf("timeline presence %v != reference %v", gt != nil, wt != nil)
	}
	if gt == nil {
		return nil
	}
	if gt.Makespan != wt.Makespan {
		return fmt.Errorf("makespan %v != reference %v", gt.Makespan, wt.Makespan)
	}
	if !slices.Equal(gt.StreamNames, wt.StreamNames) {
		return fmt.Errorf("streams %v != reference %v", gt.StreamNames, wt.StreamNames)
	}
	if len(gt.Spans) != len(wt.Spans) {
		return fmt.Errorf("span count %d != reference %d", len(gt.Spans), len(wt.Spans))
	}
	for i := range gt.Spans {
		if gt.Spans[i] != wt.Spans[i] {
			return fmt.Errorf("span %d: %+v != reference %+v", i, gt.Spans[i], wt.Spans[i])
		}
	}
	return nil
}

// matchOracle simulates p with and without a captured timeline and
// compares both with the oracle.
func matchOracle(c hw.Cluster, m model.Transformer, p core.Plan) error {
	par := Defaults()
	want, err := referenceResult(c, m, p, par)
	if err != nil {
		return fmt.Errorf("%v: reference: %w", p, err)
	}
	got, err := SimulateOpts(c, m, p, Options{CaptureTimeline: true, Params: &par})
	if err != nil {
		return fmt.Errorf("%v: %w", p, err)
	}
	if err := diffResults(got, want); err != nil {
		return fmt.Errorf("%v: %w", p, err)
	}
	plain, err := SimulateOpts(c, m, p, Options{})
	if err != nil {
		return fmt.Errorf("%v: %w", p, err)
	}
	want.Timeline = nil
	if err := diffResults(plain, want); err != nil {
		return fmt.Errorf("%v without timeline: %w", p, err)
	}
	return nil
}

// fixedPlans covers every paper schedule family, both overlap settings
// and all sharding modes on the paper cluster.
func fixedPlans() []core.Plan {
	return []core.Plan{
		{Method: core.BreadthFirst, DP: 4, PP: 8, TP: 2, MicroBatch: 1, NumMicro: 12, Loops: 8,
			Sharding: core.DPFS, OverlapDP: true, OverlapPP: true},
		{Method: core.BreadthFirst, DP: 2, PP: 4, TP: 8, MicroBatch: 1, NumMicro: 8, Loops: 2,
			OverlapDP: true, OverlapPP: true},
		{Method: core.DepthFirst, DP: 1, PP: 8, TP: 8, MicroBatch: 1, NumMicro: 16, Loops: 4},
		{Method: core.GPipe, DP: 2, PP: 8, TP: 4, MicroBatch: 1, NumMicro: 16, Loops: 1,
			Sharding: core.DPPS, OverlapDP: true, OverlapPP: true},
		{Method: core.OneFOneB, DP: 1, PP: 8, TP: 8, MicroBatch: 2, NumMicro: 16, Loops: 1},
		{Method: core.NoPipelineBF, DP: 32, PP: 1, TP: 2, MicroBatch: 1, NumMicro: 2, Loops: 8,
			Sharding: core.DPFS, OverlapDP: true},
		{Method: core.NoPipelineDF, DP: 64, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 2, Loops: 16},
		{Method: core.Hybrid, DP: 1, PP: 8, TP: 8, MicroBatch: 1, NumMicro: 32, Loops: 2,
			Sequence: 16, OverlapDP: true, OverlapPP: true},
	}
}

// TestFastPathMatchesBaseline asserts SimulateOpts reproduces the oracle on
// every fixedPlans plan: every Result field and every span.
func TestFastPathMatchesBaseline(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model52B()
	for _, p := range fixedPlans() {
		if err := matchOracle(c, m, p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFastPathTimelineMatchesBaseline compares a 6.6B DP-FS breadth-first
// simulation with the oracle span by span.
func TestFastPathTimelineMatchesBaseline(t *testing.T) {
	if err := matchOracle(hw.PaperCluster(), model.Model6p6B(), core.Plan{
		Method: core.BreadthFirst, DP: 8, PP: 4, TP: 2, MicroBatch: 1,
		NumMicro: 16, Loops: 4, Sharding: core.DPFS, OverlapDP: true, OverlapPP: true}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayMatchesOracleRandomized compares SimulateOpts with the oracle
// on randomized plans of every registered generator, on the tiny and the
// 52B model, and checks the draw covered both settings of each overlap
// flag and every sharding the generator's search enumerates.
func TestReplayMatchesOracleRandomized(t *testing.T) {
	const perModel = 100
	c := hw.PaperCluster()
	rng := rand.New(rand.NewSource(16))
	for _, g := range schedule.Generators() {
		method := g.Method()
		seen := map[string]bool{}
		for _, m := range []model.Transformer{model.Tiny(), model.Model52B()} {
			for i := 0; i < perModel; i++ {
				p := randomPlan(rng, m, method)
				if err := matchOracle(c, m, p); err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
				seen[fmt.Sprintf("overlapPP=%v", p.OverlapPP)] = true
				seen[fmt.Sprintf("overlapDP=%v", p.OverlapDP)] = true
				seen[p.Sharding.String()] = true
			}
		}
		want := []string{"overlapPP=false", "overlapPP=true", "overlapDP=false", "overlapDP=true"}
		shardings := g.Traits().Shardings
		if len(shardings) == 0 {
			shardings = []core.Sharding{core.DP0}
		}
		for _, sh := range shardings {
			want = append(want, sh.String())
		}
		for _, w := range want {
			if !seen[w] {
				t.Errorf("%v: no plan drawn with %s", method, w)
			}
		}
	}
}

// TestOracleDetectsShiftedSpan checks the comparison is sharp: moving one
// replayed task's end by 1e-9 s, for a task of every class, makes it fail.
func TestOracleDetectsShiftedSpan(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model52B()
	p := core.Plan{Method: core.BreadthFirst, DP: 2, PP: 4, TP: 8, MicroBatch: 1, NumMicro: 8, Loops: 2,
		Sharding: core.DPFS, OverlapDP: true, OverlapPP: true}
	want, err := referenceResult(c, m, p, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	classes := map[des.Class]bool{}
	for i := range want.Timeline.Spans {
		cls := want.Timeline.Spans[i].Class
		if classes[cls] {
			continue
		}
		classes[cls] = true
		got, err := SimulateOpts(c, m, p, Options{CaptureTimeline: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := diffResults(got, want); err != nil {
			t.Fatalf("unshifted: %v", err)
		}
		got.Timeline.Spans[i].End += 1e-9
		if diffResults(got, want) == nil {
			t.Errorf("shifting a %v span's end by 1e-9 went unnoticed", cls)
		}
	}
	if len(classes) != 6 {
		t.Errorf("plan exercised %d task classes, want 6", len(classes))
	}
}
