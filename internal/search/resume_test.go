package search

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"bfpp/internal/hw"
	"bfpp/internal/model"
)

// TestCheckpointResumeByteIdentical is the sweep-journaling acceptance
// criterion: a sweep restarted with any subset of the checkpoints the
// first run emitted produces byte-identical search.Table output, and the
// resumed groups are not re-enumerated. The checkpoints cross a JSON
// round-trip, because that is how the service journals them.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	batches := []int{1, 32, 64, 128} // batch 1 is infeasible: never checkpointed
	fams := AllFamilies()

	type entry struct {
		Key  GroupKey `json:"key"`
		Best Best     `json:"best"`
	}
	var entries []entry
	full, err := SweepAll(context.Background(), c, m, fams, batches, Options{
		Workers: 4,
		Checkpoint: func(k GroupKey, b Best) {
			entries = append(entries, entry{k, b}) // serialized by the search
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Table("resume", full)

	// Every resolved (family, batch) cell checkpoints exactly once, and
	// nothing else does.
	cells := map[GroupKey]bool{}
	for f, bests := range full {
		for _, b := range bests {
			cells[GroupKey{Family: f.Info().Key, Batch: b.Plan.BatchSize()}] = true
		}
	}
	seen := map[GroupKey]bool{}
	for _, e := range entries {
		if seen[e.Key] {
			t.Fatalf("group %+v checkpointed twice", e.Key)
		}
		seen[e.Key] = true
		if !cells[e.Key] {
			t.Fatalf("checkpoint for %+v, which has no table row", e.Key)
		}
	}
	if len(seen) != len(cells) {
		t.Fatalf("checkpointed %d groups, table has %d", len(seen), len(cells))
	}

	// Journal round-trip: the service stores checkpoints as JSON.
	blob, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []entry
	if err := json.Unmarshal(blob, &replayed); err != nil {
		t.Fatal(err)
	}

	for _, take := range []int{0, 1, len(replayed) / 2, len(replayed)} {
		resume := map[GroupKey]Best{}
		for _, e := range replayed[:take] {
			resume[e.Key] = e.Best
		}
		var recheck int
		stats := &Stats{}
		got, err := SweepAll(context.Background(), c, m, fams, batches, Options{
			Workers: 4,
			Resume:  resume,
			Stats:   stats,
			Checkpoint: func(k GroupKey, b Best) {
				if _, ok := resume[k]; ok {
					t.Errorf("resumed group %+v checkpointed again", k)
				}
				recheck++
			},
		})
		if err != nil {
			t.Fatalf("take=%d: %v", take, err)
		}
		if s := Table("resume", got); s != want {
			t.Errorf("take=%d: resumed Table differs:\n--- full ---\n%s--- resumed ---\n%s", take, want, s)
		}
		if recheck != len(cells)-take {
			t.Errorf("take=%d: %d fresh checkpoints, want %d", take, recheck, len(cells)-take)
		}
		if take == len(replayed) && stats.Enumerated.Load() != 0 {
			// A fully-journaled sweep only re-enumerates the infeasible
			// (never-checkpointed) cells, which enumerate to nothing.
			t.Errorf("full resume still enumerated %d candidates", stats.Enumerated.Load())
		}
	}
}

// TestResumeOptimize pins that a journaled single-cell search returns the
// recorded winner without enumerating.
func TestResumeOptimize(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	f := FamilyBreadthFirst

	want, err := Optimize(context.Background(), c, m, f, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	got, err := Optimize(context.Background(), c, m, f, 64, Options{
		Stats:  stats,
		Resume: map[GroupKey]Best{{Family: f.Info().Key, Batch: 64}: want},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed Optimize differs: %+v vs %+v", got, want)
	}
	if stats.Enumerated.Load() != 0 {
		t.Fatalf("resumed Optimize enumerated %d candidates", stats.Enumerated.Load())
	}
}

// TestResumeInfeasibleTyped pins the ErrInfeasible classification
// callers rely on to tell "nothing fits" from real faults (the service
// answers an empty table for it and fails the request for anything else).
func TestResumeInfeasibleTyped(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	_, err := Optimize(context.Background(), c, m, FamilyBreadthFirst, 1, Options{})
	if err == nil {
		t.Fatal("batch 1 unexpectedly feasible")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("infeasible search error %v is not ErrInfeasible", err)
	}
	_, err = SweepAll(context.Background(), c, m, AllFamilies(), []int{1}, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("infeasible sweep error %v is not ErrInfeasible", err)
	}
}

// TestCheckpointCancelledGroupsNotEmitted pins the crash-safety side of
// the contract: groups cut off by cancellation are never checkpointed, so
// a journal can only ever hold fully-resolved winners.
func TestCheckpointCancelledGroupsNotEmitted(t *testing.T) {
	c := hw.PaperCluster()
	m := model.Model6p6B()
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	_, err := SweepAll(ctx, c, m, AllFamilies(), []int{32, 64, 128}, Options{
		Workers: 2,
		Checkpoint: func(k GroupKey, b Best) {
			fired++
			cancel() // kill the sweep at the first resolved group
		},
	})
	if err == nil {
		t.Skip("sweep finished before cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// All groups: 3 batches x all families. The run was cancelled after
	// the first checkpoint, so not every group may have fired; the ones
	// that did were fully resolved before the cancel.
	total := len(AllFamilies()) * 3
	if fired >= total {
		t.Fatalf("all %d groups checkpointed despite cancellation", total)
	}
}
