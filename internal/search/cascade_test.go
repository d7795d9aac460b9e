package search

import (
	"context"
	"testing"

	"bfpp/internal/hw"
	"bfpp/internal/model"
)

// TestCascadeTableMatchesExact is the tiered-cascade acceptance criterion:
// the default cascade (tier-1 floor pricing, lazy tier-2 exact replay,
// warm-started incumbents, deferred leader simulation) must produce
// byte-identical search.Table output to the unpruned sweep, across every
// registered family and at several worker counts.
func TestCascadeTableMatchesExact(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	batches := []int{32, 64, 128}
	fams := AllFamilies()

	ref, err := SweepAll(context.Background(), c, m, fams, batches, Options{NoPrune: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := Table("cascade", ref)

	for _, workers := range []int{1, 2, 4, 8} {
		got, err := SweepAll(context.Background(), c, m, fams, batches, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if s := Table("cascade", got); s != want {
			t.Errorf("workers=%d: cascade Table differs from unpruned:\n--- unpruned ---\n%s--- cascade ---\n%s",
				workers, want, s)
		}
	}
}

// TestWarmStartCascadeProperties is the warm-start/cascade property test:
// over a multi-batch sweep the cascade must (a) return the same winners as
// the unpruned sweep, (b) actually exercise tier 2 (some exact replays
// paid) while keeping it lazy (far fewer replays than enumerations),
// (c) keep the counter algebra intact — every enumerated candidate lands
// in exactly one of dominated/bounded-out/simulated, and the floor-only
// skips are a subset of the bound skips — and (d) land at least one
// warm-started incumbent: adjacent batches of the same family share winner
// shapes, so the neighbor seed must win some group.
func TestWarmStartCascadeProperties(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	batches := []int{16, 32, 64, 128, 256}
	fams := AllFamilies()

	ref, err := SweepAll(context.Background(), c, m, fams, batches, Options{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	got, err := SweepAll(context.Background(), c, m, fams, batches, Options{Workers: 4, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if len(got[f]) != len(ref[f]) {
			t.Fatalf("%v: cascade found %d winners, unpruned %d", f, len(got[f]), len(ref[f]))
		}
		for i := range got[f] {
			if got[f][i].Result != ref[f][i].Result || got[f][i].Configs != ref[f][i].Configs {
				t.Errorf("%v winner %d: cascade %v differs from unpruned %v",
					f, i, got[f][i].Plan, ref[f][i].Plan)
			}
		}
	}

	enum := stats.Enumerated.Load()
	if enum == 0 {
		t.Fatal("no candidates counted")
	}
	if got, want := stats.Dominated.Load()+stats.BoundSkipped.Load()+stats.Simulated.Load(), enum; got != want {
		t.Errorf("counters do not add up: %d vs %d enumerated", got, want)
	}
	if rp := stats.ReplayPriced.Load(); rp == 0 {
		t.Error("cascade never paid a tier-2 exact replay")
	} else if rp >= enum {
		t.Errorf("tier 2 is not lazy: %d replays for %d enumerated candidates", rp, enum)
	}
	if fo, bs := stats.FlooredOut.Load(), stats.BoundSkipped.Load(); fo > bs {
		t.Errorf("FlooredOut %d exceeds BoundSkipped %d", fo, bs)
	} else if fo == 0 {
		t.Error("the tier-1 floor never pruned a candidate on its own")
	}
	if stats.WarmStartHits.Load() == 0 {
		t.Error("no group incumbent was warm-started from a neighboring batch")
	}
	// Per-family cascade counters sum to the totals, like the base counters.
	var fo, rp, ws int64
	for _, k := range stats.FamilyKeys() {
		fs := stats.Family(k)
		fo += fs.FlooredOut.Load()
		rp += fs.ReplayPriced.Load()
		ws += fs.WarmStartHits.Load()
		if f, b := fs.FlooredOut.Load(), fs.BoundSkipped.Load(); f > b {
			t.Errorf("family %s: FlooredOut %d exceeds BoundSkipped %d", k, f, b)
		}
	}
	if fo != stats.FlooredOut.Load() || rp != stats.ReplayPriced.Load() || ws != stats.WarmStartHits.Load() {
		t.Errorf("family cascade counters do not sum to totals: %d/%d/%d vs %d/%d/%d",
			fo, rp, ws, stats.FlooredOut.Load(), stats.ReplayPriced.Load(), stats.WarmStartHits.Load())
	}
	t.Logf("cascade: %v", &stats.FamilyStats)
}
