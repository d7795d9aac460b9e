package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bfpp/internal/core"
	"bfpp/internal/cost"
	"bfpp/internal/hw"
	"bfpp/internal/memsim"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// randomPlan draws a plan of method for m on the paper cluster: group
// sizes, micro-batching, loops, sharding, sequence and both overlap flags
// are drawn raw, and redrawn until Plan.Validate accepts them and the plan
// fits the cluster.
func randomPlan(rng *rand.Rand, m model.Transformer, method core.Method) core.Plan {
	gpus := hw.PaperCluster().NumGPUs()
	for {
		p := core.Plan{Method: method,
			DP: 1 << rng.Intn(4), PP: 1 << rng.Intn(4), TP: 1 << rng.Intn(4),
			MicroBatch: 1 + rng.Intn(3), NumMicro: 1 + rng.Intn(16), Loops: 1 << rng.Intn(7),
			Sharding: core.Sharding(rng.Intn(3)), Sequence: rng.Intn(17),
			OverlapDP: rng.Intn(2) == 0, OverlapPP: rng.Intn(2) == 0}
		if p.GPUs() <= gpus && p.Validate(m) == nil {
			return p
		}
	}
}

// randomAnyPlan draws a plan of a random registered generator for m.
func randomAnyPlan(rng *rand.Rand, m model.Transformer) core.Plan {
	gens := schedule.Generators()
	return randomPlan(rng, m, gens[rng.Intn(len(gens))].Method())
}

// Property: every plan Plan.Validate accepts simulates cleanly, for every
// registered generator, and the simulator upholds its physical invariants
// across them — positive finite times, compute-stream busy time bounded by
// the batch time, utilization below the kernel ceiling, and determinism.
func TestSimulatorInvariantsProperty(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model52B()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomAnyPlan(rng, m)
		r1, err := Simulate(c, m, p)
		if err != nil {
			t.Logf("plan %v: %v", p, err)
			return false
		}
		if !(r1.BatchTime > 0) || !(r1.Utilization > 0) {
			t.Logf("plan %v: non-positive result %v", p, r1)
			return false
		}
		if r1.ComputeTime > r1.BatchTime+1e-9 {
			t.Logf("plan %v: compute %v > batch %v", p, r1.ComputeTime, r1.BatchTime)
			return false
		}
		if r1.Utilization > c.GPU.KernelEff.MaxEff {
			t.Logf("plan %v: utilization %v above kernel ceiling", p, r1.Utilization)
			return false
		}
		// Bubble lower-bounds the idle fraction for DP=1 pipelined plans:
		// batch time >= compute time * (1 + bubble) approximately; check
		// the weak direction only (bubble cannot make it faster).
		r2, err := Simulate(c, m, p)
		if err != nil || r2.BatchTime != r1.BatchTime {
			t.Logf("plan %v: nondeterministic", p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Overlap can only help: for every method that supports both traits, the
// overlapped implementation is at least as fast.
func TestOverlapNeverHurtsProperty(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model52B()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomAnyPlan(rng, m)
		p.Sharding = core.DP0 // isolate the overlap effect
		pOn := p
		pOn.OverlapDP, pOn.OverlapPP = true, true
		pOff := p
		pOff.OverlapDP, pOff.OverlapPP = false, false
		rOn, err1 := Simulate(c, m, pOn)
		rOff, err2 := Simulate(c, m, pOff)
		if err1 != nil || err2 != nil {
			return false
		}
		return rOn.BatchTime <= rOff.BatchTime+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Failure injection: corrupting the engine parameters must surface as
// errors or implausible results, not silent nonsense.
func TestDegenerateParams(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model52B()
	p := core.Plan{Method: core.BreadthFirst, DP: 1, PP: 8, TP: 8,
		MicroBatch: 1, NumMicro: 8, Loops: 4, OverlapDP: true, OverlapPP: true}
	// Zeroed overheads: still valid, strictly faster than defaults.
	par := Defaults()
	par.KernelLaunch = 0
	par.BlockingPPBase, par.BlockingPPPerRank = 0, 0
	fast, err := SimulateOpts(c, m, p, Options{Params: &par})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Simulate(c, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if fast.BatchTime > def.BatchTime {
		t.Errorf("idealized params should not be slower: %v vs %v", fast.BatchTime, def.BatchTime)
	}
	// A cluster with a broken link must be rejected at validation.
	broken := c
	broken.InterNode.Bandwidth = 0
	if _, err := Simulate(broken, m, p); err == nil {
		t.Error("zero-bandwidth cluster should fail validation")
	}
}

// A NaN, infinite or negative calibration value yields a duration the
// simulation cannot charge: SimulateOpts and Precheck return the same
// error, matching ErrInvalidCosts, instead of panicking or pricing the
// plan.
func TestInvalidCostsError(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model52B()
	p := core.Plan{Method: core.BreadthFirst, DP: 1, PP: 8, TP: 8,
		MicroBatch: 1, NumMicro: 8, Loops: 4, OverlapDP: true, OverlapPP: true}
	for _, v := range []float64{math.NaN(), math.Inf(1), -1} {
		par := Defaults()
		par.KernelLaunch = v
		opt := Options{Params: &par}
		_, err := SimulateOpts(c, m, p, opt)
		if err == nil {
			t.Errorf("KernelLaunch %v: SimulateOpts returned no error", v)
			continue
		}
		if !errors.Is(err, ErrInvalidCosts) {
			t.Errorf("KernelLaunch %v: error %v does not match ErrInvalidCosts", v, err)
		}
		if perr := Precheck(c, m, p, opt); perr == nil || perr.Error() != err.Error() {
			t.Errorf("KernelLaunch %v: Precheck error %v, SimulateOpts error %v", v, perr, err)
		}
	}
}

// A calibration profile can pass Profile.Validate with every derived
// duration finite and still overflow the batch time: a kernel launch of
// 1.79e308 s is finite, but the replay's sums of it are not. SimulateOpts
// and Precheck reject the plan with the same error instead of reporting an
// infinite batch time.
func TestOverflowingCostsError(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	p := core.Plan{Method: core.BreadthFirst, DP: 1, PP: 8, TP: 8,
		MicroBatch: 1, NumMicro: 8, Loops: 4, OverlapDP: true, OverlapPP: true}
	prof := cost.DefaultProfile()
	prof.KernelLaunch = 1.79e308
	if err := prof.Validate(); err != nil {
		t.Fatalf("profile rejected by Validate: %v", err)
	}
	par := Defaults()
	par.Model = cost.Calibrated(prof)
	opt := Options{Params: &par}
	r, err := SimulateOpts(c, m, p, opt)
	if err == nil {
		t.Fatalf("SimulateOpts returned no error (batch time %v)", r.BatchTime)
	}
	if !errors.Is(err, ErrInvalidCosts) {
		t.Errorf("error %v does not match ErrInvalidCosts", err)
	}
	if perr := Precheck(c, m, p, opt); perr == nil || perr.Error() != err.Error() {
		t.Errorf("Precheck error %v, SimulateOpts error %v", perr, err)
	}
}

// Precheck generates no device programs: for one valid plan of every
// registered generator it leaves both schedule memo-cache counters as they
// were, and the simulation that follows reads the programs from the cache
// exactly once.
func TestPrecheckGeneratesNothing(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model52B()
	rng := rand.New(rand.NewSource(21))
	for _, g := range schedule.Generators() {
		p := randomPlan(rng, m, g.Method())
		// The V-schedule's memory estimate reads its programs; memoize it
		// first, so the simulation reads them only for its replay.
		memsim.CachedEstimate(m, p)
		hits0, misses0 := schedule.CacheStats()
		if err := Precheck(c, m, p, Options{}); err != nil {
			t.Fatalf("%v: Precheck: %v", p, err)
		}
		if hits, misses := schedule.CacheStats(); hits != hits0 || misses != misses0 {
			t.Errorf("%v: Precheck reached the schedule cache: hits %d -> %d, misses %d -> %d",
				p, hits0, hits, misses0, misses)
		}
		if _, err := SimulateOpts(c, m, p, Options{}); err != nil {
			t.Fatalf("%v: SimulateOpts: %v", p, err)
		}
		if hits, misses := schedule.CacheStats(); hits-hits0+misses-misses0 != 1 {
			t.Errorf("%v: Precheck and SimulateOpts made %d schedule cache lookups, want 1",
				p, hits-hits0+misses-misses0)
		}
	}
}

// A method registered in core with no schedule generator fails Precheck
// and SimulateOpts with the schedule memo cache's own error, and neither
// reaches the cache to find out.
func TestPrecheckNoGenerator(t *testing.T) {
	const orphan = core.Method(90)
	if _, ok := orphan.Info(); !ok {
		core.RegisterMethod(orphan, core.MethodInfo{Name: "orphan"})
	}
	c := hw.PaperCluster()
	m := model.Model52B()
	p := core.Plan{Method: orphan, DP: 1, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 1}
	hits0, misses0 := schedule.CacheStats()
	perr := Precheck(c, m, p, Options{})
	_, serr := SimulateOpts(c, m, p, Options{})
	if hits, misses := schedule.CacheStats(); hits != hits0 || misses != misses0 {
		t.Errorf("the checks reached the schedule cache: hits %d -> %d, misses %d -> %d", hits0, hits, misses0, misses)
	}
	_, cerr := schedule.Cached(p)
	if cerr == nil {
		t.Fatal("schedule.Cached accepted a method with no generator")
	}
	want := "engine: " + cerr.Error()
	if perr == nil || perr.Error() != want {
		t.Errorf("Precheck error %v, want %q", perr, want)
	}
	if serr == nil || serr.Error() != want {
		t.Errorf("SimulateOpts error %v, want %q", serr, want)
	}
}
