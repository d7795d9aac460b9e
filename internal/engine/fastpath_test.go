package engine

import (
	"slices"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/des"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// fastpathPlans covers every schedule family, both overlap settings and
// all sharding modes on the paper cluster.
func fastpathPlans() []core.Plan {
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

// referenceTimeline builds p's task graph from a freshly generated and
// checked schedule (no memo cache) and executes it with the simulator's
// reference rescanning loop, des.Sim.RunReference.
func referenceTimeline(t *testing.T, c hw.Cluster, m model.Transformer, p core.Plan) *des.Timeline {
	t.Helper()
	sched, err := schedule.Generate(p)
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	if err := schedule.Check(sched); err != nil {
		t.Fatalf("%v: generated schedule invalid: %v", p, err)
	}
	b := builder{c: c, m: m, p: p, par: Defaults(), sched: sched, sim: des.New()}
	b.build()
	defer b.release()
	tl, err := b.sim.RunReference()
	if err != nil {
		t.Fatalf("%v reference: %v", p, err)
	}
	return tl
}

// matchReference simulates p on the default path (memo caches, indexed DES)
// and compares its timeline with the reference one by makespan, stream
// names and span by span.
func matchReference(t *testing.T, c hw.Cluster, m model.Transformer, p core.Plan) {
	t.Helper()
	fast, err := SimulateOpts(c, m, p, Options{CaptureTimeline: true})
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	ref := referenceTimeline(t, c, m, p)
	got := fast.Timeline
	if got.Makespan != ref.Makespan || fast.BatchTime != ref.Makespan {
		t.Fatalf("%v: makespan %v (batch time %v) != reference %v", p, got.Makespan, fast.BatchTime, ref.Makespan)
	}
	if !slices.Equal(got.StreamNames, ref.StreamNames) {
		t.Fatalf("%v: streams %v != reference %v", p, got.StreamNames, ref.StreamNames)
	}
	if len(got.Spans) != len(ref.Spans) {
		t.Fatalf("%v: span count %d != reference %d", p, len(got.Spans), len(ref.Spans))
	}
	for i := range got.Spans {
		if got.Spans[i] != ref.Spans[i] {
			t.Fatalf("%v: span %d differs: %+v != reference %+v", p, i, got.Spans[i], ref.Spans[i])
		}
	}
}

// TestFastPathMatchesBaseline asserts the default simulation path (memo
// caches, indexed DES) reproduces the reference execution of every
// fastpathPlans graph exactly.
func TestFastPathMatchesBaseline(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model52B()
	for _, p := range fastpathPlans() {
		matchReference(t, c, m, p)
	}
}

// TestFastPathTimelineMatchesBaseline compares a 6.6B DP-FS breadth-first
// timeline with the reference execution span by span.
func TestFastPathTimelineMatchesBaseline(t *testing.T) {
	matchReference(t, hw.PaperCluster(), model.Model6p6B(), core.Plan{
		Method: core.BreadthFirst, DP: 8, PP: 4, TP: 2, MicroBatch: 1,
		NumMicro: 16, Loops: 4, Sharding: core.DPFS, OverlapDP: true, OverlapPP: true})
}
