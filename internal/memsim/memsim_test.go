package memsim

import (
	"math"
	"math/rand"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

const mib = 1 << 20
const gib = 1 << 30

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

// Appendix A.2.2: GPT-3 live activations are 552 MB per sample and the 1T
// model uses 1050 MB per sample (Eq. 16, NTP=8).
func TestActivationMemoryMatchesPaperExamples(t *testing.T) {
	gpt3 := model.GPT3()
	p := core.Plan{Method: core.GPipe, DP: 1, PP: 4, TP: 8, MicroBatch: 1, NumMicro: 4, Loops: 1}
	b := Estimate(gpt3, p)
	if got := b.Activations / mib; relErr(got, 552) > 0.01 {
		t.Errorf("GPT-3 activations = %.1f MiB, want 552", got)
	}
	oneT := model.Model1T()
	b = Estimate(oneT, p)
	if got := b.Activations / mib; relErr(got, 1050) > 0.01 {
		t.Errorf("1T activations = %.1f MiB, want 1050", got)
	}
}

// Appendix A.2.2: checkpoint memory at beta_min is 576 MB for GPT-3 and
// 1600 MB for 1T (Eq. 17 with Nmb = NPP = 4, Smb = 1).
func TestCheckpointMemoryMatchesPaperExamples(t *testing.T) {
	p := core.Plan{Method: core.GPipe, DP: 1, PP: 4, TP: 8, MicroBatch: 1, NumMicro: 4, Loops: 1}
	b := Estimate(model.GPT3(), p)
	if got := b.Checkpoints / mib; relErr(got, 576) > 0.01 {
		t.Errorf("GPT-3 checkpoints = %.1f MiB, want 576", got)
	}
	b = Estimate(model.Model1T(), p)
	if got := b.Checkpoints / mib; relErr(got, 1600) > 0.01 {
		t.Errorf("1T checkpoints = %.1f MiB, want 1600", got)
	}
}

// Appendix A.2.1: GPT-3 trains on 80 GB GPUs with NTP=8, NPP=4 using DP-PS
// at 10 GB (immediate reduction) or 20 GB of state; 1T requires DP-FS at
// ~7 GB.
func TestStateMemoryMatchesPaperExamples(t *testing.T) {
	// DP-PS with breadth-first: 2 bytes/param of buffers.
	p := core.Plan{Method: core.BreadthFirst, DP: 64, PP: 4, TP: 8,
		MicroBatch: 1, NumMicro: 4, Loops: 1, Sharding: core.DPPS}
	b := Estimate(model.GPT3(), p)
	if got := b.StateMin / 1e9; relErr(got, 10.9) > 0.05 {
		t.Errorf("GPT-3 DP-PS(BF) min state = %.1f GB, want ~10.9", got)
	}
	// DP-PS without immediate reduction: 4 bytes/param.
	p.Method = core.GPipe
	b = Estimate(model.GPT3(), p)
	if got := b.StateMin / 1e9; relErr(got, 21.8) > 0.05 {
		t.Errorf("GPT-3 DP-PS min state = %.1f GB, want ~21.8", got)
	}
	// 1T with DP-FS, one layer per stage (NPP=4, 32 loops): Eq. 15 gives
	// 8*Nparams/(Nlayers*NTP) ~= 7.3 GiB.
	p1t := core.Plan{Method: core.BreadthFirst, DP: 64, PP: 4, TP: 8,
		MicroBatch: 1, NumMicro: 4, Loops: 32, Sharding: core.DPFS}
	b = Estimate(model.Model1T(), p1t)
	want := 8 * float64(model.Model1T().Params()-model.Model1T().EmbeddingParams()) /
		(float64(model.Model1T().Layers) * 8)
	if relErr(b.StateMin, want) > 0.01 {
		t.Errorf("1T DP-FS min state = %.2f GiB, want %.2f GiB", b.StateMin/gib, want/gib)
	}
	if b.StateMin/gib > 8 {
		t.Errorf("1T DP-FS min state = %.2f GiB, want ~7", b.StateMin/gib)
	}
}

// Table E.1 cross-check: the 52B model with DP0, PP=TP=8 has ~15-16 GB peak
// for our implementation, and the sharded minimum removes 16 bytes/param
// (Appendix E footnote 15).
func TestTableE1MemoryShape(t *testing.T) {
	m := model.Model52B()
	p := core.Plan{Method: core.BreadthFirst, DP: 1, PP: 8, TP: 8,
		MicroBatch: 1, NumMicro: 8, Loops: 4, Sharding: core.DP0,
		OverlapDP: true, OverlapPP: true}
	b := Estimate(m, p)
	if got := b.Total() / gib; got < 13 || got > 18 {
		t.Errorf("52B DP0 peak = %.2f GiB, want ~15-16", got)
	}
	pDev := float64(m.Layers) * float64(m.LayerParams()) / 64
	diff := b.Total() - b.TotalMin()
	if relErr(diff, 16*pDev) > 1e-9 {
		t.Errorf("peak-min difference = %.2f bytes/param, want 16", diff/pDev)
	}
	// Megatron implementation counts 4 bytes/param less at peak.
	pm := p
	pm.Method = core.OneFOneB
	pm.Loops = 1
	bm := Estimate(m, pm)
	if relErr(b.State-bm.State, 4*pDev) > 1e-9 {
		t.Errorf("Megatron peak state should be 4 bytes/param lower")
	}
}

// Table 4.1: state memory ranking DP-FS < DP-PS < DP0 for the same plan
// shape, and DP-FS state is independent of the per-device layer count.
func TestShardingRanking(t *testing.T) {
	m := model.Model52B()
	mk := func(s core.Sharding) Breakdown {
		// Loops=8: one layer per stage, so the DP-FS double buffer holds
		// only two layers.
		return Estimate(m, core.Plan{Method: core.BreadthFirst, DP: 8, PP: 8, TP: 1,
			MicroBatch: 1, NumMicro: 8, Loops: 8, Sharding: s})
	}
	d0, dps, dfs := mk(core.DP0), mk(core.DPPS), mk(core.DPFS)
	if !(dfs.State < dps.State && dps.State < d0.State) {
		t.Errorf("state ranking violated: DP0=%.2f DPPS=%.2f DPFS=%.2f GiB",
			d0.State/gib, dps.State/gib, dfs.State/gib)
	}
	if !(dfs.StateMin < dps.StateMin && dps.StateMin < d0.StateMin) {
		t.Errorf("min state ranking violated")
	}
}

// The 1F1B activation cap: checkpoints stop growing with Nmb, unlike GPipe
// (Section 3.2: "PP1f1b uses less activation memory").
func TestOneFOneBActivationCap(t *testing.T) {
	m := model.Model52B()
	mk := func(method core.Method, nmb int) float64 {
		return Estimate(m, core.Plan{Method: method, DP: 1, PP: 8, TP: 8,
			MicroBatch: 1, NumMicro: nmb, Loops: 1}).Checkpoints
	}
	if mk(core.OneFOneB, 8) != mk(core.OneFOneB, 64) {
		t.Error("1F1B checkpoints should be capped independent of Nmb")
	}
	if mk(core.GPipe, 64) <= mk(core.GPipe, 8) {
		t.Error("GPipe checkpoints should grow with Nmb")
	}
	if mk(core.GPipe, 64) <= mk(core.OneFOneB, 64) {
		t.Error("GPipe should exceed 1F1B checkpoints at large Nmb")
	}
}

// The analytic in-flight formula must agree with the actual schedules.
func TestInFlightMatchesSchedules(t *testing.T) {
	cases := []core.Plan{
		{Method: core.GPipe, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1},
		{Method: core.OneFOneB, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1},
		{Method: core.BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 4},
		{Method: core.DepthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 2},
		{Method: core.NoPipelineBF, DP: 1, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 4},
	}
	for _, p := range cases {
		s, err := schedule.Generate(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		worst := 0
		for _, prog := range s.Devices {
			if v := schedule.MaxInFlight(prog); v > worst {
				worst = v
			}
		}
		if got := schedule.TraitsOf(p.Method).InFlight(p); got != worst {
			t.Errorf("%v: analytic in-flight %d != schedule %d", p, got, worst)
		}
	}
}

func TestNoPipelineDFHoldsOneMicroBatch(t *testing.T) {
	m := model.Model6p6B()
	mk := func(nmb int) float64 {
		return Estimate(m, core.Plan{Method: core.NoPipelineDF, DP: 4, PP: 1, TP: 1,
			MicroBatch: 1, NumMicro: nmb, Loops: 1}).Checkpoints
	}
	if mk(1) != mk(16) {
		t.Error("no-pipeline DF checkpoints should not grow with Nmb")
	}
	mkBF := func(nmb int) float64 {
		return Estimate(m, core.Plan{Method: core.NoPipelineBF, DP: 4, PP: 1, TP: 1,
			MicroBatch: 1, NumMicro: nmb, Loops: 1}).Checkpoints
	}
	if mkBF(16) != 16*mkBF(1) {
		t.Error("no-pipeline BF checkpoints should grow linearly with Nmb (Appendix C cost)")
	}
}

func TestFeasible(t *testing.T) {
	m := model.Model52B()
	p := core.Plan{Method: core.BreadthFirst, DP: 1, PP: 8, TP: 8,
		MicroBatch: 1, NumMicro: 8, Loops: 4}
	if !Fits(m, p, 32*gib) {
		t.Errorf("52B on 32 GiB with PP=TP=8 should fit (paper ran it): %v", Estimate(m, p))
	}
	// The whole 52B model on one GPU cannot fit.
	p1 := core.Plan{Method: core.NoPipelineDF, DP: 2, PP: 1, TP: 1,
		MicroBatch: 1, NumMicro: 1, Loops: 1}
	if Fits(m, p1, 32*gib) {
		t.Error("52B unsharded on a single 32 GiB GPU should not fit")
	}
	// The reserve keeps a tenth of the memory free: a budget of exactly
	// the estimate fails, one a ninth above it fits.
	total := Estimate(m, p).Total()
	if Fits(m, p, int64(total)) {
		t.Errorf("a budget of the bare estimate (%.2f GiB) should leave no reserve", total/gib)
	}
	if !Fits(m, p, int64(total/0.9)+1) {
		t.Errorf("a budget of estimate/0.9 (%.2f GiB) should fit", total/0.9/gib)
	}
}

// TestMemoryFloorNeverExceedsEstimate is the memory-side admissibility
// property Fits rests on: for random valid plans of every registered model
// and generator, the trait-free floor never exceeds Estimate's total, so
// checking the floor first rejects only plans the estimate would reject;
// and every generator's InFlight is at least Loops, the in-flight count
// the floor assumes.
func TestMemoryFloorNeverExceedsEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range model.Registry.FixedNames() {
		m, err := model.Registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range schedule.Generators() {
			checked := 0
			for trial := 0; trial < 400 && checked < 30; trial++ {
				p := randomPlan(rng, g.Method())
				if p.Validate(m) != nil {
					continue
				}
				checked++
				if lo, total := floor(m, p), Estimate(m, p).Total(); lo > total {
					t.Errorf("%s: memory floor %v exceeds estimate %v for %v", name, lo, total, p)
				}
				if got := schedule.TraitsOf(p.Method).InFlight(p); got < p.Loops {
					t.Errorf("%s: InFlight %d below Loops for %v", name, got, p)
				}
			}
			if checked < 10 {
				t.Errorf("%s %v: only %d randomized plans checked", name, g.Method(), checked)
			}
		}
	}
}

// randomPlan draws a plan of the method that Plan.Validate often accepts:
// sizes around the paper's grids, every sharding the generator lists, and
// the per-method Sequence dial.
func randomPlan(rng *rand.Rand, method core.Method) core.Plan {
	p := core.Plan{
		Method: method,
		DP:     1 << rng.Intn(4), PP: 1, TP: 1 << rng.Intn(4),
		MicroBatch: 1 + rng.Intn(4), Loops: 1,
	}
	if sh := schedule.TraitsOf(method).Shardings; len(sh) > 0 {
		p.Sharding = sh[rng.Intn(len(sh))]
	}
	switch {
	case !method.Pipelined():
		p.Loops = 1 << rng.Intn(7)
		p.NumMicro = 1 + rng.Intn(16)
	case method.Looped():
		p.Loops = 1 << rng.Intn(4)
		fallthrough
	default:
		p.PP = 2 << rng.Intn(4)
		p.NumMicro = p.PP * (1 + rng.Intn(4))
	}
	switch method {
	case core.Hybrid:
		p.Sequence = p.PP << rng.Intn(2)
	case core.VSchedule:
		p.Sequence = rng.Intn(2*p.PP + 1) // 0 = default cap
	}
	return p
}

func TestBreakdownString(t *testing.T) {
	b := Estimate(model.Tiny(), core.Plan{Method: core.GPipe, DP: 1, PP: 4, TP: 1,
		MicroBatch: 1, NumMicro: 4, Loops: 1})
	if b.String() == "" {
		t.Error("empty string")
	}
	if b.Total() < b.TotalMin() {
		t.Error("Total should be >= TotalMin")
	}
}
