package schedule

import (
	"strings"
	"testing"

	"bfpp/internal/core"
)

// TestReplayDeadlockErrors: programs whose cross-device dependencies form
// a cycle (which Check would reject) make Replay return an error instead
// of a timeline. Device 0 runs the stage-0 backward first, which waits for
// the gradient of device 1's backward, which waits for device 1's forward,
// which waits for the activation of device 0's forward.
func TestReplayDeadlockErrors(t *testing.T) {
	p := core.Plan{Method: core.GPipe, DP: 1, PP: 2, TP: 1, MicroBatch: 1, NumMicro: 1, Loops: 1}
	s := &Schedule{Plan: p, Devices: []Program{
		{{Backward, 0, 0}, {Forward, 0, 0}, {Optimize, -1, -1}},
		{{Forward, 1, 0}, {Backward, 1, 0}, {Optimize, -1, -1}},
	}}
	c := StepCosts{Fwd: 1, Bwd: 2, Transfer: 0.5, Opt: 0.25}
	tl, err := s.Replay(c)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Replay = %v, %v; want a deadlock error", tl, err)
	}
	// The same device programs in a valid order replay cleanly.
	s.Devices[0][0], s.Devices[0][1] = s.Devices[0][1], s.Devices[0][0]
	if tl, err = s.Replay(c); err != nil || tl.Makespan != 1+0.5+1+2+0.5+2+0.25 {
		t.Fatalf("Replay = %+v, %v; want makespan 7.25", tl, err)
	}
}
