package trace

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bfpp/internal/core"
)

// goldenTimelines renders the timelines testdata/golden_timelines.txt
// pins: the Gantt charts of the four Figure-4 schedules, of the Figure-9
// DP-FS gradient-accumulation pair, and the Chrome trace of a small
// non-overlapped depth-first plan whose transfers and reductions ride the
// compute stream. Between them they cover every op class, inline and
// side-stream transfers and DP work, and both overlap settings.
func goldenTimelines(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	figure4 := []core.Plan{
		{Method: core.GPipe, DP: 1, PP: 4, TP: 1, MicroBatch: 4, NumMicro: 8, Loops: 1,
			OverlapDP: true, OverlapPP: true},
		{Method: core.OneFOneB, DP: 1, PP: 4, TP: 1, MicroBatch: 4, NumMicro: 8, Loops: 1},
		{Method: core.DepthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 4, NumMicro: 8, Loops: 4},
		{Method: core.BreadthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 4, NumMicro: 8, Loops: 4,
			OverlapDP: true, OverlapPP: true},
	}
	figure9 := []core.Plan{
		{Method: core.NoPipelineDF, DP: 4, PP: 1, TP: 1, MicroBatch: 4, NumMicro: 4, Loops: 4,
			Sharding: core.DPFS, OverlapDP: true},
		{Method: core.NoPipelineBF, DP: 4, PP: 1, TP: 1, MicroBatch: 4, NumMicro: 4, Loops: 4,
			Sharding: core.DPFS, OverlapDP: true},
	}
	for _, p := range append(figure4, figure9...) {
		tl := timeline(t, p)
		fmt.Fprintf(&b, "%v — makespan %v\n%s\n", p, tl.Makespan, Gantt(tl, 120))
	}
	p := core.Plan{Method: core.DepthFirst, DP: 2, PP: 2, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 2}
	raw, err := ChromeTrace(timeline(t, p))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%v — chrome trace\n%s\n", p, raw)
	return b.String()
}

// TestGoldenTimelines pins the Gantt and Chrome-trace bytes of the
// simulated timelines: testdata/golden_timelines.txt was generated by the
// task-graph builder on the discrete-event simulator, before the schedule
// replay became the simulator, and must never drift.
func TestGoldenTimelines(t *testing.T) {
	got := goldenTimelines(t)
	want, err := os.ReadFile("testdata/golden_timelines.txt")
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	if got != string(want) {
		t.Fatalf("timelines differ from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
