package search

import (
	"context"
	"sync"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
)

// TestOptimizeParallelMatchesBaseline runs the same (family, batch) search
// through the unpruned serial reference and through the pruned worker pool
// at several widths, asserting identical winners, throughputs and candidate
// counts.
func TestOptimizeParallelMatchesBaseline(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	for _, f := range Families() {
		want, err := Optimize(context.Background(), c, m, f, 64, Options{NoPrune: true, Workers: 1})
		if err != nil {
			t.Fatalf("%v reference: %v", f, err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := Optimize(context.Background(), c, m, f, 64, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", f, workers, err)
			}
			if got.Plan != want.Plan {
				t.Errorf("%v workers=%d: plan %v != %v", f, workers, got.Plan, want.Plan)
			}
			if got.Throughput != want.Throughput || got.Configs != want.Configs {
				t.Errorf("%v workers=%d: (%.6g, %d) != (%.6g, %d)", f, workers,
					got.Throughput, got.Configs, want.Throughput, want.Configs)
			}
			if got.Result != want.Result {
				t.Errorf("%v workers=%d: full result differs", f, workers)
			}
		}
	}
}

// TestSweepParallelMatchesBaseline compares the formatted Table E output of
// the unpruned serial reference and the pruned worker pool — the
// acceptance criterion is byte-for-byte identity, including infeasible
// batch skipping.
func TestSweepParallelMatchesBaseline(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	batches := []int{1, 32, 64, 96} // batch 1 is infeasible and must be skipped
	reference := map[Family][]Best{}
	parallelRes := map[Family][]Best{}
	for _, f := range Families() {
		b, err := Sweep(context.Background(), c, m, f, batches, Options{NoPrune: true, Workers: 1})
		if err != nil {
			t.Fatalf("%v reference: %v", f, err)
		}
		reference[f] = b
		p, err := Sweep(context.Background(), c, m, f, batches, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%v parallel: %v", f, err)
		}
		parallelRes[f] = p
	}
	want := Table("equivalence", reference)
	got := Table("equivalence", parallelRes)
	if got != want {
		t.Errorf("parallel Table output differs from the serial reference:\n--- reference ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestPickBestTieStable pins the deterministic tie-break: among equal
// maximal throughputs the lowest-indexed result wins, exactly like the
// serial loop's strict `>` comparison.
func TestPickBestTieStable(t *testing.T) {
	mk := func(tp float64, dp int) engine.Result {
		return engine.Result{Plan: core.Plan{DP: dp}, Throughput: tp}
	}
	results := []engine.Result{mk(1, 1), mk(3, 2), mk(3, 3), mk(2, 4), mk(3, 5)}
	best := pickBest(results)
	if best.Plan.DP != 2 {
		t.Errorf("tie-break picked DP=%d, want the first maximal result (DP=2)", best.Plan.DP)
	}
	if best.Configs != len(results) {
		t.Errorf("Configs = %d, want %d", best.Configs, len(results))
	}
	// Strictly increasing throughputs: last wins.
	if got := pickBest([]engine.Result{mk(1, 1), mk(2, 2), mk(3, 3)}); got.Plan.DP != 3 {
		t.Errorf("max selection picked DP=%d, want 3", got.Plan.DP)
	}
}

// TestOptimizeConcurrentCallers exercises concurrent top-level searches
// sharing the schedule/memsim caches (run under -race in ci.sh).
func TestOptimizeConcurrentCallers(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	want, err := Optimize(context.Background(), c, m, FamilyBreadthFirst, 64, Options{NoPrune: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := Optimize(context.Background(), c, m, FamilyBreadthFirst, 64, Options{Workers: 2})
			if err != nil {
				errs[i] = err
				return
			}
			if got.Result != want.Result || got.Configs != want.Configs {
				t.Errorf("concurrent caller %d diverged", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepStatsWorkerInvariant pins that the pruning counters, not just
// the table, are the same at any worker count: each (family, batch) group
// is priced start to finish on one worker against its own incumbent, so
// no count depends on which worker priced what first. The scenario is the
// Figure 7 sweep (52B, paper cluster, the paper families, batches 8-512).
func TestSweepStatsWorkerInvariant(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model52B()
	batches := []int{8, 16, 32, 64, 128, 256, 512}
	counts := func(fs *FamilyStats) [5]int64 {
		return [5]int64{fs.Enumerated.Load(), fs.BoundSkipped.Load(), fs.Simulated.Load(),
			fs.FlooredOut.Load(), fs.ReplayPriced.Load()}
	}
	sweep := func(workers int) (map[string][5]int64, string) {
		stats := &Stats{}
		res, err := SweepAll(context.Background(), c, m, Families(), batches, Options{Workers: workers, Stats: stats})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := map[string][5]int64{"total": counts(&stats.FamilyStats)}
		for _, k := range stats.FamilyKeys() {
			got[k] = counts(stats.Family(k))
		}
		return got, Table("figure 7", res)
	}
	want, wantTable := sweep(1)
	for _, workers := range []int{2, 4, 8} {
		got, table := sweep(workers)
		if table != wantTable {
			t.Errorf("workers=%d: table differs from workers=1", workers)
		}
		if len(got) != len(want) {
			t.Errorf("workers=%d: counted families %v, want %v", workers, got, want)
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("workers=%d %s: [enumerated bounded-out simulated floored-out replay-priced] = %v, want %v",
					workers, k, got[k], w)
			}
		}
	}
}
