package schedule

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/des"
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
	_, tl, err := s.Replay(c, true)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Replay = %v, %v; want a deadlock error", tl, err)
	}
	// The same device programs in a valid order replay cleanly.
	s.Devices[0][0], s.Devices[0][1] = s.Devices[0][1], s.Devices[0][0]
	if _, tl, err = s.Replay(c, true); err != nil || tl.Makespan != 1+0.5+1+2+0.5+2+0.25 {
		t.Fatalf("Replay = %+v, %v; want makespan 7.25", tl, err)
	}
}

// timelineSummary derives a Summary from a captured timeline the way the
// engine read it before the replay summarized its own records: a side
// stream's kind is its worst device's BusyTime, and a kind riding the
// compute streams is its ClassTime over every stream.
func timelineSummary(p core.Plan, nDev int, tl *des.Timeline) Summary {
	sum := Summary{Makespan: tl.Makespan}
	ppSide, dpSide := SideStreams(p)
	busy := [...]*float64{&sum.Compute, &sum.PP, &sum.DP}
	var sid des.StreamID
	for kind, on := range [...]bool{true, ppSide, dpSide} {
		for dev := 0; on && dev < nDev; dev++ {
			if t := tl.BusyTime(sid); t > *busy[kind] {
				*busy[kind] = t
			}
			sid++
		}
	}
	if !ppSide {
		sum.PP = tl.ClassTime(-1, des.ClassSend)
	}
	if !dpSide {
		sum.DP = tl.ClassTime(-1, des.ClassReduce) + tl.ClassTime(-1, des.ClassRestore)
	}
	return sum
}

// TestReplaySummaryMatchesTimeline checks the Summary a replay sums from
// its per-op records against the same quantities read off its laid-out
// timeline, bit for bit, on randomized plans of every registered generator
// under both overlap flags. The costs are random reals, so a sum taken in
// another order would differ in its last bits.
func TestReplaySummaryMatchesTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bits := func(s Summary) [4]uint64 {
		return [4]uint64{math.Float64bits(s.Makespan), math.Float64bits(s.Compute),
			math.Float64bits(s.PP), math.Float64bits(s.DP)}
	}
	for _, g := range Generators() {
		m := g.Method()
		replayed := 0
		for trial := 0; trial < 400 && replayed < 60; trial++ {
			p, ok := randomPlan(rng, m)
			if !ok {
				continue
			}
			p.OverlapPP, p.OverlapDP = rng.Intn(2) == 0, rng.Intn(2) == 0
			s, err := Cached(p)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			c := StepCosts{Fwd: rng.Float64(), Bwd: rng.Float64(), Transfer: rng.Float64() / 3,
				PPStall: rng.Float64() / 7, Reduce: rng.Float64() / 5, Restore: rng.Float64() / 11,
				Opt: rng.Float64() / 13}
			sum, tl, err := s.Replay(c, true)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			if want := timelineSummary(p, len(s.Devices), tl); bits(sum) != bits(want) {
				t.Fatalf("%v (overlap pp=%v dp=%v): summary %+v != timeline's %+v", p, p.OverlapPP, p.OverlapDP, sum, want)
			}
			plain, none, err := s.Replay(c, false)
			if err != nil || none != nil || bits(plain) != bits(sum) {
				t.Fatalf("%v: Replay without a timeline = %+v, %v, %v; want %+v, nil, nil", p, plain, none, err, sum)
			}
			replayed++
		}
		if replayed < 20 {
			t.Errorf("%v: only %d random plans replayed", m, replayed)
		}
	}
}
