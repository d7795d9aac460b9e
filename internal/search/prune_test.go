package search

import (
	"context"
	"math"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/memsim"
	"bfpp/internal/model"
)

// TestPrunedSweepMatchesUnpruned is the branch-and-bound acceptance
// criterion: the pruned SweepAll must produce byte-identical search.Table
// output to the unpruned path, across every registered family (including
// the extension schedules with their Sequence enumeration) and at several
// worker counts.
func TestPrunedSweepMatchesUnpruned(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	batches := []int{1, 32, 64, 128} // batch 1 is infeasible and must be skipped
	fams := AllFamilies()

	ref, err := SweepAll(context.Background(), c, m, fams, batches, Options{NoPrune: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Table("equivalence", ref)

	for _, workers := range []int{1, 2, 4, 8} {
		stats := &Stats{}
		got, err := SweepAll(context.Background(), c, m, fams, batches, Options{Workers: workers, Stats: stats})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if s := Table("equivalence", got); s != want {
			t.Errorf("workers=%d: pruned Table differs from unpruned:\n--- unpruned ---\n%s--- pruned ---\n%s",
				workers, want, s)
		}
		if stats.Enumerated.Load() == 0 {
			t.Errorf("workers=%d: no candidates counted", workers)
		}
		if got, want := stats.Dominated.Load()+stats.BoundSkipped.Load()+stats.Simulated.Load(),
			stats.Enumerated.Load(); got != want {
			t.Errorf("workers=%d: counters do not add up: %d skipped+simulated vs %d enumerated",
				workers, got, want)
		}
		if stats.PruneRate() <= 0 {
			t.Errorf("workers=%d: expected some pruning, got %v", workers, stats)
		}
		t.Logf("workers=%d: %v", workers, stats)
	}
}

// TestPrunedMatchesUnprunedLargeCluster repeats the equivalence check at
// the scale the appendixE-large artifact ships: a bigger model on a
// LargeCluster, where the replay-exactness and rounding-slack arguments
// carry much larger op counts and cost magnitudes than the paper testbed.
func TestPrunedMatchesUnprunedLargeCluster(t *testing.T) {
	c := hw.LargeCluster(512)
	m := model.GPT3()
	batches := []int{64, 128}
	fams := AllFamilies()
	ref, err := SweepAll(context.Background(), c, m, fams, batches, Options{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepAll(context.Background(), c, m, fams, batches, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := Table("large", ref)
	if s := Table("large", got); s != want {
		t.Errorf("pruned LargeCluster Table differs from unpruned:\n--- unpruned ---\n%s--- pruned ---\n%s", want, s)
	}
}

// TestPrunedOptimizeMatchesUnpruned compares single-batch winners, full
// Result structs included, for every family.
func TestPrunedOptimizeMatchesUnpruned(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	for _, f := range AllFamilies() {
		want, err := Optimize(context.Background(), c, m, f, 64, Options{NoPrune: true})
		if err != nil {
			t.Fatalf("%v unpruned: %v", f, err)
		}
		got, err := Optimize(context.Background(), c, m, f, 64, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%v pruned: %v", f, err)
		}
		if got.Result != want.Result || got.Configs != want.Configs {
			t.Errorf("%v: pruned winner differs: %v vs %v", f, got.Plan, want.Plan)
		}
	}
}

// TestVScheduleCapChangesWinner pins the ROADMAP item the Sequence
// enumeration ships: at a memory-constrained configuration the V-schedule
// search enumerates several in-flight caps per grid point, and the winner
// carries a non-default cap that strictly beats every default-cap
// candidate.
func TestVScheduleCapChangesWinner(t *testing.T) {
	vfam, ok := FamilyByKey("v")
	if !ok {
		t.Fatal("v-schedule family not registered")
	}
	c := hw.PaperCluster()
	c.GPU.MemBytes = 8 << 30 // memory-constrained V100 variant
	m := model.Model6p6B()
	const batch = 32

	plans := Enumerate(context.Background(), c, m, vfam, batch, Options{})
	capped, dflt := 0, 0
	for _, p := range plans {
		if p.Sequence != 0 {
			capped++
		} else {
			dflt++
		}
	}
	if capped == 0 || dflt == 0 {
		t.Fatalf("expected both capped and default candidates, got %d capped / %d default", capped, dflt)
	}

	best, err := Optimize(context.Background(), c, m, vfam, batch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if best.Plan.Sequence == 0 {
		t.Fatalf("winner %v should carry a non-default in-flight cap", best.Plan)
	}

	// The cap changes the winner: every default-cap candidate is strictly
	// worse than the capped optimum.
	var best0 float64
	for _, p := range plans {
		if p.Sequence != 0 {
			continue
		}
		r, err := engine.Simulate(c, m, p)
		if err != nil {
			t.Fatalf("simulate %v: %v", p, err)
		}
		if r.Throughput > best0 {
			best0 = r.Throughput
		}
	}
	if best.Throughput <= best0 {
		t.Errorf("capped winner %.2f Tflop/s should beat best default-cap %.2f",
			best.Throughput/1e12, best0/1e12)
	}

	// And the dial trades memory: the deadlock-floor cap needs less
	// checkpoint memory than the default at the same grid point.
	low := best.Plan
	low.Sequence = low.Loops
	dfl := low
	dfl.Sequence = 0
	if low.Validate(m) == nil && dfl.Validate(m) == nil && low.Sequence < dfl.PP {
		lowCk := memsim.Estimate(m, low).Checkpoints
		dflCk := memsim.Estimate(m, dfl).Checkpoints
		if lowCk >= dflCk {
			t.Errorf("low cap checkpoints %.2f GiB should undercut default %.2f GiB", lowCk/(1<<30), dflCk/(1<<30))
		}
	}
}

// TestPrunedErrorsMatchUnpruned pins the error-transparency guarantee that
// replaced the old package-comment caveat: a candidate whose simulation
// would error is prechecked before any pruning decision, so it reports the
// same error even when the branch-and-bound would have bounded it out, and
// Optimize/Sweep surface the same lowest-index error with and without
// pruning at any worker count.
func TestPrunedErrorsMatchUnpruned(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	f, ok := FamilyByKey("df")
	if !ok {
		t.Fatal("depth-first family not registered")
	}
	plans := Enumerate(context.Background(), c, m, f, 64, Options{})
	if len(plans) < 4 {
		t.Fatalf("want >= 4 depth-first candidates, got %d", len(plans))
	}
	// Two failing candidates at different indexes: NumMicro not divisible
	// by PP fails depth-first generation inside the engine. The lower index
	// must win in both paths.
	bad1, bad2 := plans[1], plans[3]
	bad1.NumMicro++
	bad2.NumMicro++
	group := append([]core.Plan{}, plans...)
	group[1], group[3] = bad1, bad2

	groups := [][]core.Plan{group}
	_, refErrs, _ := evalGroups(context.Background(), c, m, groups, []string{"df"}, Options{NoPrune: true, Workers: 1})
	if refErrs[0] == nil {
		t.Fatal("injected candidates did not error on the unpruned path")
	}
	for _, workers := range []int{1, 4} {
		_, errs, _ := evalGroups(context.Background(), c, m, groups, []string{"df"}, Options{Workers: workers})
		if errs[0] == nil {
			t.Fatalf("workers=%d: pruning masked the candidate error %q", workers, refErrs[0])
		}
		if errs[0].Error() != refErrs[0].Error() {
			t.Errorf("workers=%d: pruned error %q != unpruned %q", workers, errs[0], refErrs[0])
		}
	}
}

// TestPerFamilyStats pins the per-family pruning breakdown: family
// counters sum to the totals, and the overlapped families — priced exactly
// by the multi-stream replay — prune a substantial share of their
// candidates (they used to rely on the loose generic floor alone).
func TestPerFamilyStats(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	stats := &Stats{}
	if _, err := SweepAll(context.Background(), c, m, AllFamilies(), []int{32, 64, 128}, Options{Stats: stats, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	keys := stats.FamilyKeys()
	if len(keys) != len(AllFamilies()) {
		t.Fatalf("per-family stats cover %d families, want %d (%v)", len(keys), len(AllFamilies()), keys)
	}
	var enum, dom, skip, sim int64
	for _, k := range keys {
		fs := stats.Family(k)
		enum += fs.Enumerated.Load()
		dom += fs.Dominated.Load()
		skip += fs.BoundSkipped.Load()
		sim += fs.Simulated.Load()
		if got, want := fs.Dominated.Load()+fs.BoundSkipped.Load()+fs.Simulated.Load(),
			fs.Enumerated.Load(); got != want {
			t.Errorf("family %s: counters do not add up: %d vs %d enumerated", k, got, want)
		}
		t.Logf("family %s: %v", k, fs)
	}
	if enum != stats.Enumerated.Load() || dom != stats.Dominated.Load() ||
		skip != stats.BoundSkipped.Load() || sim != stats.Simulated.Load() {
		t.Errorf("family counters do not sum to totals: %d/%d/%d/%d vs %v", enum, dom, skip, sim, &stats.FamilyStats)
	}
	// The tentpole's acceptance: the overlapped families are now priced by
	// the exact replay and must actually prune.
	for _, k := range []string{"bf", "ws", "hy"} {
		if fs := stats.Family(k); fs.Enumerated.Load() > 0 && fs.PruneRate() < 0.25 {
			t.Errorf("overlapped family %s prunes only %.1f%% (%v), want a substantial rate", k, 100*fs.PruneRate(), fs)
		}
	}
}

// A calibration value that makes a derived duration NaN, infinite or
// negative fails the search with an error, pruned and unpruned alike:
// the precheck reports it before any bound could price the candidate out.
func TestInvalidCostsFailOptimize(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	f, ok := FamilyByKey("bf")
	if !ok {
		t.Fatal("breadth-first family not registered")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), -1} {
		par := engine.Defaults()
		par.KernelLaunch = v
		for _, noPrune := range []bool{false, true} {
			_, err := Optimize(context.Background(), c, m, f, 64,
				Options{Params: &par, Workers: 2, NoPrune: noPrune})
			if err == nil {
				t.Errorf("KernelLaunch %v, NoPrune %v: Optimize returned no error", v, noPrune)
			}
		}
	}
}
