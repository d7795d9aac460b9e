package search

import (
	"context"
	"testing"

	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// TestCascadeTableMatchesExact is the tiered-cascade acceptance criterion:
// the default cascade (tier-1 floor pricing, lazy tier-2 exact replay,
// the winner simulated when its group settles) must produce
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

// TestCascadeProperties is the cascade property test: over a multi-batch
// sweep, at 1, 2, 4 and 8 workers, the cascade must (a) return the same
// winners as the unpruned sweep, (b) actually exercise tier 2 (some exact
// replays paid) while keeping it lazy (far fewer replays than
// enumerations), (c) keep the counter algebra intact — every enumerated
// candidate is either bounded out or simulated, and the floor-only skips
// are a subset of the bound skips — and (d) settle each feasible group of
// a replay-priced family with exactly one simulation, its winner's.
func TestCascadeProperties(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	batches := []int{16, 32, 64, 128, 256}
	fams := AllFamilies()

	ref, err := SweepAll(context.Background(), c, m, fams, batches, Options{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		stats := &Stats{}
		got, err := SweepAll(context.Background(), c, m, fams, batches, Options{Workers: workers, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fams {
			if len(got[f]) != len(ref[f]) {
				t.Fatalf("workers=%d: %v: cascade found %d winners, unpruned %d", workers, f, len(got[f]), len(ref[f]))
			}
			for i := range got[f] {
				if got[f][i].Result != ref[f][i].Result || got[f][i].Configs != ref[f][i].Configs {
					t.Errorf("workers=%d: %v winner %d: cascade %v differs from unpruned %v",
						workers, f, i, got[f][i].Plan, ref[f][i].Plan)
				}
			}
		}

		enum := stats.Enumerated.Load()
		if enum == 0 {
			t.Fatal("no candidates counted")
		}
		if got, want := stats.BoundSkipped.Load()+stats.Simulated.Load(), enum; got != want {
			t.Errorf("workers=%d: counters do not add up: %d vs %d enumerated", workers, got, want)
		}
		if rp := stats.ReplayPriced.Load(); rp == 0 {
			t.Errorf("workers=%d: cascade never paid a tier-2 exact replay", workers)
		} else if rp >= enum {
			t.Errorf("workers=%d: tier 2 is not lazy: %d replays for %d enumerated candidates", workers, rp, enum)
		}
		if fo, bs := stats.FlooredOut.Load(), stats.BoundSkipped.Load(); fo > bs {
			t.Errorf("workers=%d: FlooredOut %d exceeds BoundSkipped %d", workers, fo, bs)
		} else if fo == 0 {
			t.Errorf("workers=%d: the tier-1 floor never pruned a candidate on its own", workers)
		}
		// Per-family cascade counters sum to the totals, like the base
		// counters.
		var fo, rp int64
		for _, k := range stats.FamilyKeys() {
			fs := stats.Family(k)
			fo += fs.FlooredOut.Load()
			rp += fs.ReplayPriced.Load()
			if f, b := fs.FlooredOut.Load(), fs.BoundSkipped.Load(); f > b {
				t.Errorf("workers=%d: family %s: FlooredOut %d exceeds BoundSkipped %d", workers, k, f, b)
			}
		}
		if fo != stats.FlooredOut.Load() || rp != stats.ReplayPriced.Load() {
			t.Errorf("workers=%d: family cascade counters do not sum to totals: %d/%d vs %d/%d",
				workers, fo, rp, stats.FlooredOut.Load(), stats.ReplayPriced.Load())
		}
		// Every candidate of a replay-priced family is either bounded out
		// or deferred at its exact price, and a settled group simulates
		// only the deferred candidate its incumbent names.
		replayPriced := 0
		for _, f := range fams {
			if !allReplayPriced(f) {
				continue
			}
			replayPriced++
			if sims := stats.Family(f.Info().Key).Simulated.Load(); sims != int64(len(ref[f])) {
				t.Errorf("workers=%d: %v simulated %d candidates for %d feasible groups, want one each",
					workers, f, sims, len(ref[f]))
			}
		}
		if replayPriced == 0 {
			t.Fatal("no replay-priced family registered")
		}
		t.Logf("workers=%d: cascade: %v", workers, &stats.FamilyStats)
	}
}

// allReplayPriced reports whether every member of the family registers a
// tier-2 exact replay.
func allReplayPriced(f Family) bool {
	for _, v := range f.Info().Variants {
		if schedule.TraitsOf(v.Method).StepLB == nil {
			return false
		}
	}
	return true
}
