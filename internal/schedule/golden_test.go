package schedule

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bfpp/internal/core"
)

// TestGoldenPrograms asserts that the registry-based generators produce
// byte-identical device programs to the pre-refactor switch-based code:
// testdata/golden_programs.txt was generated by the seed implementation
// over this exact plan matrix and must never drift for the paper's seven
// methods. The WS-1F1B and V-schedule cases at the end were generated by
// the V-schedule's original list scheduler, which rescanned every
// device's ready list per op; they pin the heap-driven one to its
// choices: the default cap, the deadlock-floor cap (Loops, where the
// serial-head exemption fires), the midpoint and 2*PP caps, NumMicro not
// a multiple of PP, PP 1 to 8, Loops 2 and 4, and DP 1 and 2. The last,
// five-loop case moves the serial head onto a device that sits at its
// cap with no backward ready, which only the head's exemption lets run.
func TestGoldenPrograms(t *testing.T) {
	var b strings.Builder
	type pc struct {
		m          core.Method
		pp, nmb, l int
		dp         int
		sh         core.Sharding
		seq        int
	}
	cases := []pc{
		{core.GPipe, 4, 8, 1, 1, core.DP0, 0},
		{core.GPipe, 4, 8, 1, 4, core.DP0, 0},
		{core.GPipe, 2, 5, 1, 2, core.DPPS, 0},
		{core.OneFOneB, 4, 8, 1, 1, core.DP0, 0},
		{core.OneFOneB, 4, 8, 1, 2, core.DP0, 0},
		{core.OneFOneB, 3, 3, 1, 2, core.DP0, 0},
		{core.OneFOneB, 4, 5, 1, 1, core.DP0, 0},
		{core.DepthFirst, 4, 8, 4, 1, core.DP0, 0},
		{core.DepthFirst, 4, 8, 2, 2, core.DP0, 0},
		{core.DepthFirst, 2, 4, 1, 2, core.DP0, 0},
		{core.BreadthFirst, 4, 8, 4, 1, core.DP0, 0},
		{core.BreadthFirst, 4, 8, 2, 4, core.DPFS, 0},
		{core.BreadthFirst, 2, 3, 3, 2, core.DP0, 0},
		{core.Hybrid, 4, 16, 2, 1, core.DP0, 8},
		{core.Hybrid, 2, 8, 2, 2, core.DP0, 4},
		{core.Hybrid, 4, 8, 2, 1, core.DP0, 4},
		{core.NoPipelineDF, 1, 4, 4, 2, core.DP0, 0},
		{core.NoPipelineDF, 1, 4, 4, 2, core.DPFS, 0},
		{core.NoPipelineDF, 1, 3, 2, 1, core.DP0, 0},
		{core.NoPipelineBF, 1, 4, 4, 2, core.DP0, 0},
		{core.NoPipelineBF, 1, 4, 4, 2, core.DPFS, 0},
		{core.NoPipelineBF, 1, 3, 2, 1, core.DP0, 0},
		{core.WeightStash1F1B, 4, 8, 1, 2, core.DP0, 0},
		{core.VSchedule, 1, 3, 2, 1, core.DP0, 0},
		{core.VSchedule, 2, 4, 2, 2, core.DP0, 0},
		{core.VSchedule, 3, 5, 2, 1, core.DP0, 0},
		{core.VSchedule, 4, 8, 2, 1, core.DP0, 0},
		{core.VSchedule, 4, 8, 2, 2, core.DP0, 2},
		{core.VSchedule, 4, 6, 2, 1, core.DP0, 8},
		{core.VSchedule, 4, 8, 4, 1, core.DP0, 4},
		{core.VSchedule, 5, 7, 2, 2, core.DP0, 3},
		{core.VSchedule, 6, 9, 4, 1, core.DP0, 0},
		{core.VSchedule, 7, 10, 2, 1, core.DP0, 2},
		{core.VSchedule, 8, 16, 2, 2, core.DP0, 0},
		{core.VSchedule, 8, 12, 4, 1, core.DP0, 4},
		{core.VSchedule, 8, 16, 4, 2, core.DP0, 16},
		{core.VSchedule, 4, 11, 5, 1, core.DP0, 10},
	}
	for _, c := range cases {
		overlap := TraitsOf(c.m).Overlap
		p := core.Plan{Method: c.m, DP: c.dp, PP: c.pp, TP: 1,
			MicroBatch: 1, NumMicro: c.nmb, Loops: c.l,
			Sharding: c.sh, Sequence: c.seq,
			OverlapDP: overlap, OverlapPP: overlap}
		s, err := Generate(p)
		if err != nil {
			fmt.Fprintf(&b, "%v => error: %v\n", p, err)
			continue
		}
		fmt.Fprintf(&b, "%v Seq=%d OverlapDP=%v OverlapPP=%v\n", p, p.Sequence, p.OverlapDP, p.OverlapPP)
		for d, prog := range s.Devices {
			ops := make([]string, len(prog))
			for i, op := range prog {
				ops[i] = op.String()
			}
			fmt.Fprintf(&b, "  dev%d: %s\n", d, strings.Join(ops, " "))
		}
	}

	want, err := os.ReadFile("testdata/golden_programs.txt")
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	if got := b.String(); got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("programs differ from pre-refactor golden at line %d:\n got: %s\nwant: %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("programs differ from pre-refactor golden in length: %d vs %d lines",
			len(gotLines), len(wantLines))
	}
}
