package search

import (
	"context"
	"os"
	"testing"

	"bfpp/internal/cost"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
)

// paramsFor returns engine params carrying the named registered cost model.
func paramsFor(t *testing.T, name string) *engine.Params {
	t.Helper()
	cm, err := cost.Registry.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	par := engine.Defaults()
	par.Model = cm
	return &par
}

// TestGoldenTableExplicitPaperModel is the refactor's parity guarantee: a
// sweep that routes pricing through an explicitly looked-up "paper" cost
// model produces the same bytes as the pre-refactor DeriveCosts did —
// testdata/golden_table.txt — at every worker count.
func TestGoldenTableExplicitPaperModel(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	batches := []int{32, 64, 128}
	want, err := os.ReadFile("testdata/golden_table.txt")
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	for _, workers := range []int{1, 4, 8} {
		opt := Options{Workers: workers, Params: paramsFor(t, "paper")}
		all, err := SweepAll(context.Background(), c, m, Families(), batches, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := Table("Golden: 6.6B on Paper-512 (512 GPUs)", all); got != string(want) {
			t.Fatalf("workers=%d: explicit paper model drifts from pre-refactor golden:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestPrunedSweepMatchesUnprunedCostModels extends the branch-and-bound
// acceptance criterion to the non-default cost models: with the calibrated
// model (off-default profile) and the contended model (on the ethernet
// cluster, where NIC sharing actually bites), the pruned parallel SweepAll
// must stay byte-identical to the unpruned serial reference. This is the
// single-producer invariant paying off: the bounds price through the same
// model as the simulator, so admissibility — and with it pruning exactness
// — holds for any registered model without per-model bound code.
func TestPrunedSweepMatchesUnprunedCostModels(t *testing.T) {
	perturbed := cost.DefaultProfile()
	perturbed.Kernel.MaxEff = 0.5
	perturbed.KernelLaunch *= 3
	perturbed.TPLinkEfficiency = 0.6
	perturbed.DPLinkEfficiency = 0.7
	perturbed.InterNodeLatency *= 4

	cases := []struct {
		name    string
		model   cost.Model
		cluster hw.Cluster
	}{
		{"calibrated-perturbed", cost.Calibrated(perturbed), hw.PaperCluster()},
		{"contended-ethernet", mustLookup(t, "contended"), hw.PaperClusterEthernet()},
	}
	m := model.Model6p6B()
	batches := []int{32, 64}
	fams := AllFamilies()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			par := engine.Defaults()
			par.Model = tc.model
			ref, err := SweepAll(context.Background(), tc.cluster, m, fams, batches,
				Options{NoPrune: true, Workers: 1, Params: &par})
			if err != nil {
				t.Fatal(err)
			}
			want := Table("equivalence", ref)
			for _, workers := range []int{1, 4} {
				stats := &Stats{}
				got, err := SweepAll(context.Background(), tc.cluster, m, fams, batches,
					Options{Workers: workers, Stats: stats, Params: &par})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if s := Table("equivalence", got); s != want {
					t.Errorf("workers=%d: pruned Table differs from unpruned under %s:\n--- unpruned ---\n%s--- pruned ---\n%s",
						workers, tc.name, want, s)
				}
				if stats.PruneRate() <= 0 {
					t.Errorf("workers=%d: expected some pruning under %s, got %v", workers, tc.name, stats)
				}
			}
		})
	}
}

// TestCostModelChangesSearchOutcome guards the plumbing end: if Options.
// Params stopped carrying the model into the sweep, the two tests above
// would pass vacuously. A calibrated profile with a halved kernel ceiling
// changes every plan's compute terms, so the breadth-first winner must
// price differently — and, with strictly less achievable compute, slower —
// than under the paper model. (The contended model is not a usable guard
// here: searches on contention-prone clusters steer the winner away from
// cross-node traffic, so the winning point can legitimately price the same.)
func TestCostModelChangesSearchOutcome(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	paper, err := Optimize(context.Background(), c, m, FamilyBreadthFirst, 64,
		Options{Params: paramsFor(t, "paper")})
	if err != nil {
		t.Fatal(err)
	}
	slow := cost.DefaultProfile()
	slow.Kernel.MaxEff /= 2
	par := engine.Defaults()
	par.Model = cost.Calibrated(slow)
	cal, err := Optimize(context.Background(), c, m, FamilyBreadthFirst, 64,
		Options{Params: &par})
	if err != nil {
		t.Fatal(err)
	}
	if cal.BatchTime <= paper.BatchTime {
		t.Errorf("halved kernel ceiling should slow the winner: paper %v s, calibrated %v s",
			paper.BatchTime, cal.BatchTime)
	}
}

func mustLookup(t *testing.T, name string) cost.Model {
	t.Helper()
	cm, err := cost.Registry.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}
