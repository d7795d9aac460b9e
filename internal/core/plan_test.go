package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"bfpp/internal/model"
)

func valid52BPlan() Plan {
	return Plan{
		Method: BreadthFirst, DP: 1, PP: 8, TP: 8,
		MicroBatch: 1, NumMicro: 8, Loops: 4,
		Sharding: DP0, OverlapDP: true, OverlapPP: true,
	}
}

func TestValidatePlans(t *testing.T) {
	m := model.Model52B()
	cases := []Plan{
		valid52BPlan(),
		{Method: GPipe, DP: 1, PP: 8, TP: 8, MicroBatch: 1, NumMicro: 8, Loops: 1},
		{Method: OneFOneB, DP: 1, PP: 8, TP: 8, MicroBatch: 1, NumMicro: 16, Loops: 1},
		{Method: DepthFirst, DP: 1, PP: 8, TP: 8, MicroBatch: 1, NumMicro: 16, Loops: 2},
		{Method: NoPipelineDF, DP: 8, PP: 1, TP: 8, MicroBatch: 2, NumMicro: 1, Loops: 1},
		{Method: NoPipelineBF, DP: 8, PP: 1, TP: 8, MicroBatch: 1, NumMicro: 4, Loops: 4, Sharding: DPFS},
	}
	for _, p := range cases {
		if err := p.Validate(m); err != nil {
			t.Errorf("%v: unexpected error: %v", p, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	m := model.Model52B()
	cases := []struct {
		name string
		p    Plan
	}{
		{"zero DP", Plan{Method: GPipe, DP: 0, PP: 8, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1}},
		{"zero micro", Plan{Method: GPipe, DP: 1, PP: 8, TP: 1, MicroBatch: 0, NumMicro: 8, Loops: 1}},
		{"zero nmb", Plan{Method: GPipe, DP: 1, PP: 8, TP: 1, MicroBatch: 1, NumMicro: 0, Loops: 1}},
		{"gpipe looped", Plan{Method: GPipe, DP: 1, PP: 8, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 2}},
		{"too few micro-batches", Plan{Method: GPipe, DP: 1, PP: 8, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 1}},
		{"depth-first nmb not multiple", Plan{Method: DepthFirst, DP: 1, PP: 8, TP: 1, MicroBatch: 1, NumMicro: 12, Loops: 2}},
		{"layers not divisible", Plan{Method: BreadthFirst, DP: 1, PP: 8, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 3}},
		{"no-pipeline with PP", Plan{Method: NoPipelineDF, DP: 1, PP: 2, TP: 1, MicroBatch: 1, NumMicro: 2, Loops: 1}},
		{"DPFS with DP=1", Plan{Method: BreadthFirst, DP: 1, PP: 8, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 2, Sharding: DPFS}},
		{"depth-first DPFS", Plan{Method: DepthFirst, DP: 2, PP: 8, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 2, Sharding: DPFS}},
		{"1f1b DPFS", Plan{Method: OneFOneB, DP: 2, PP: 8, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1, Sharding: DPFS}},
	}
	for _, c := range cases {
		if err := c.p.Validate(m); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestValidateRejectsOversizedPlans: a plan whose size products overflow
// int, or whose programs would exceed MaxComputeOps, fails validation
// with an error instead of panicking (PP*Loops wrapping to 0 divided the
// layer count by zero), passing a GPU budget with a wrapped GPU count, or
// sending the generator after 1.4e14 ops.
func TestValidateRejectsOversizedPlans(t *testing.T) {
	m := model.Model52B()
	for _, c := range []struct {
		name string
		p    Plan
		want string
	}{
		{"stage count wraps to 0", Plan{Method: BreadthFirst, DP: 1, PP: 1 << 32, TP: 1,
			MicroBatch: 1, NumMicro: 1 << 32, Loops: 1 << 32}, "overflows"},
		{"GPU count wraps to 0", Plan{Method: BreadthFirst, DP: 1 << 62, PP: 2, TP: 2,
			MicroBatch: 1, NumMicro: 2, Loops: 1}, "overflows"},
		{"2^47 compute ops", Plan{Method: NoPipelineBF, DP: 1, PP: 1, TP: 1,
			MicroBatch: 1, NumMicro: 1 << 40, Loops: 64}, "compute ops"},
	} {
		if err := c.p.Validate(m); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// The cap itself is inclusive: 2*64*2^15 ops is exactly MaxComputeOps.
	p := Plan{Method: NoPipelineBF, DP: 1, PP: 1, TP: 1, MicroBatch: 1, NumMicro: MaxComputeOps / 128, Loops: 64}
	if err := p.Validate(m); err != nil {
		t.Errorf("%v: %v", p, err)
	}
	p.NumMicro++
	if err := p.Validate(m); err == nil {
		t.Errorf("%v: accepted %d compute ops", p, 2*64*p.NumMicro)
	}
}

// TestValidateRejectsUnknownSharding: a Sharding outside DP0, DP-PS and
// DP-FS fails validation with an error naming the value. Plans decoded
// from JSON cannot carry one (Sharding.UnmarshalJSON rejects unknown
// names), but a library caller's plan can, and the memory estimate would
// count no training state for it.
func TestValidateRejectsUnknownSharding(t *testing.T) {
	m := model.Model52B()
	p := Plan{Method: GPipe, DP: 2, PP: 4, TP: 2, MicroBatch: 1, NumMicro: 8, Loops: 1}
	if err := p.Validate(m); err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	for _, sh := range []Sharding{7, -23, DPFS + 1} {
		p.Sharding = sh
		err := p.Validate(m)
		if err == nil || !strings.Contains(err.Error(), sh.String()) {
			t.Errorf("sharding %d: Validate = %v, want an error naming %v", int(sh), err, sh)
		}
	}
}

func TestBatchAlgebra(t *testing.T) {
	p := Plan{Method: BreadthFirst, DP: 4, PP: 4, TP: 2, MicroBatch: 2, NumMicro: 6, Loops: 8}
	if got := p.GPUs(); got != 32 {
		t.Errorf("GPUs = %d, want 32", got)
	}
	if got := p.BatchSize(); got != 48 {
		t.Errorf("BatchSize = %d, want 48", got)
	}
	if got := p.BatchPerGPU(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("beta = %v, want 1.5", got)
	}
	if got := p.BetaMin(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("beta_min = %v, want 0.5", got)
	}
	if got := p.Stages(); got != 32 {
		t.Errorf("Stages = %d, want 32", got)
	}
}

// Eq. (9): bubble = (N_PP - 1)/(N_mb * N_loop).
func TestBubbleFormula(t *testing.T) {
	p := Plan{Method: BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 4}
	want := 3.0 / 32.0
	if got := p.Bubble(); math.Abs(got-want) > 1e-12 {
		t.Errorf("bubble = %v, want %v", got, want)
	}
	// Non-looped reduces to Eq. (4).
	p2 := Plan{Method: GPipe, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1}
	if got := p2.Bubble(); math.Abs(got-3.0/8.0) > 1e-12 {
		t.Errorf("non-looped bubble = %v, want 0.375", got)
	}
	// No pipeline: no bubble.
	p3 := Plan{Method: NoPipelineDF, DP: 4, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 1}
	if got := p3.Bubble(); got != 0 {
		t.Errorf("no-pipeline bubble = %v, want 0", got)
	}
}

// Figure 3: looping placement for a 16-layer model on 4 devices.
func TestLoopingPlacementMatchesFigure3(t *testing.T) {
	m := model.Tiny() // 16 layers
	p := Plan{Method: BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 4}
	if err := p.Validate(m); err != nil {
		t.Fatal(err)
	}
	// Figure 3b: device 0 hosts layers 0,4,8,12 -> stages 0,4,8,12 with one
	// layer per stage.
	if got := p.LayersPerStage(m); got != 1 {
		t.Fatalf("layers per stage = %d, want 1", got)
	}
	wantDev0 := []int{0, 4, 8, 12}
	got := p.DeviceStages(0)
	for i, s := range wantDev0 {
		if got[i] != s {
			t.Errorf("device 0 stage %d = %d, want %d", i, got[i], s)
		}
	}
	// Standard placement (Figure 3a): one stage of 4 layers per device.
	p2 := Plan{Method: GPipe, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1}
	if got := p2.LayersPerStage(m); got != 4 {
		t.Errorf("standard layers per stage = %d, want 4", got)
	}
	lo, hi := p2.StageLayers(m, 2)
	if lo != 8 || hi != 12 {
		t.Errorf("stage 2 layers = [%d,%d), want [8,12)", lo, hi)
	}
}

// Property: every stage is owned by exactly one device, and DeviceStages is
// consistent with StageDevice.
func TestPlacementConsistencyProperty(t *testing.T) {
	f := func(ppE, loopE uint8) bool {
		pp := 1 << (ppE % 4) // 1,2,4,8
		loops := 1 << (loopE % 4)
		p := Plan{Method: BreadthFirst, DP: 1, PP: pp, TP: 1,
			MicroBatch: 1, NumMicro: pp, Loops: loops}
		seen := make(map[int]int)
		for r := 0; r < pp; r++ {
			for _, s := range p.DeviceStages(r) {
				if p.StageDevice(s) != r {
					return false
				}
				seen[s]++
			}
		}
		if len(seen) != p.Stages() {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMethodPredicates(t *testing.T) {
	if !BreadthFirst.Looped() || !DepthFirst.Looped() {
		t.Error("looped methods misclassified")
	}
	if GPipe.Looped() || OneFOneB.Looped() {
		t.Error("non-looped methods misclassified")
	}
	if NoPipelineDF.Pipelined() || NoPipelineBF.Pipelined() {
		t.Error("no-pipeline methods misclassified")
	}
	if !BreadthFirst.ForwardFirst() || OneFOneB.ForwardFirst() {
		t.Error("forward-first classification wrong")
	}
}

func TestStringFormats(t *testing.T) {
	for _, s := range []Sharding{DP0, DPPS, DPFS, Sharding(9)} {
		if s.String() == "" {
			t.Error("empty sharding string")
		}
	}
	for _, m := range []Method{GPipe, OneFOneB, DepthFirst, BreadthFirst, NoPipelineDF, NoPipelineBF, Method(17)} {
		if m.String() == "" {
			t.Error("empty method string")
		}
	}
	if valid52BPlan().String() == "" {
		t.Error("empty plan string")
	}
}
