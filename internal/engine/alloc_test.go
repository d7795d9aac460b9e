package engine

import (
	"testing"

	"bfpp/internal/hw"
	"bfpp/internal/model"
)

// simulateAllocs is what a warm simulation that captures no timeline
// allocates: the Schedule wrapper schedule.Cached returns. The memo-cache
// key reads traits stored at registration, the replay's working storage
// is pooled, and its Summary lays out no spans.
const simulateAllocs = 1

// TestSimulateAllocs pins simulateAllocs on every fixedPlans plan, once
// its programs are cached and the replay's pool is warm.
func TestSimulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled replay scratch at random")
	}
	c, m := hw.PaperCluster(), model.Model52B()
	for _, p := range fixedPlans() {
		if _, err := Simulate(c, m, p); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { Simulate(c, m, p) }); n != simulateAllocs {
			t.Errorf("%v: a warm simulation allocates %v times, want %d", p, n, simulateAllocs)
		}
	}
}
