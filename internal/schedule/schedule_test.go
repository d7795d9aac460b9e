package schedule

import (
	"strings"
	"testing"
	"testing/quick"

	"bfpp/internal/core"
)

func plan(m core.Method, pp, nmb, loops int) core.Plan {
	dp := 1
	if !m.Pipelined() {
		pp = 1
	}
	return core.Plan{
		Method: m, DP: dp, PP: pp, TP: 1,
		MicroBatch: 1, NumMicro: nmb, Loops: loops,
		Sharding: core.DP0, OverlapDP: true, OverlapPP: true,
	}
}

func mustGen(t *testing.T, p core.Plan) *Schedule {
	t.Helper()
	s, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate(%v): %v", p, err)
	}
	if err := Check(s); err != nil {
		t.Fatalf("Check(%v): %v", p, err)
	}
	return s
}

func TestAllMethodsPassInvariants(t *testing.T) {
	cases := []core.Plan{
		plan(core.GPipe, 4, 8, 1),
		plan(core.OneFOneB, 4, 8, 1),
		plan(core.DepthFirst, 4, 8, 4),
		plan(core.BreadthFirst, 4, 8, 4),
		plan(core.NoPipelineDF, 1, 4, 4),
		plan(core.NoPipelineBF, 1, 4, 4),
	}
	for _, p := range cases {
		mustGen(t, p)
	}
}

func TestGPipeStructure(t *testing.T) {
	s := mustGen(t, plan(core.GPipe, 4, 8, 1))
	prog := s.Devices[2]
	// 8 forwards, then 8 backwards, then optimize (DP=1: no reduce).
	if len(prog) != 17 {
		t.Fatalf("program length = %d, want 17", len(prog))
	}
	for i := 0; i < 8; i++ {
		if prog[i].Kind != Forward || prog[i].Micro != i || prog[i].Stage != 2 {
			t.Errorf("op %d = %v, want F2.%d", i, prog[i], i)
		}
		if prog[8+i].Kind != Backward || prog[8+i].Micro != i {
			t.Errorf("op %d = %v, want B2.%d", 8+i, prog[8+i], i)
		}
	}
	if prog[16].Kind != Optimize {
		t.Errorf("last op = %v, want S", prog[16])
	}
}

// Figure 4b: the last device of a 1F1B pipeline alternates from the start
// (F0 B0 F1 B1 ...), while device 0 warms up with PP-1 forwards.
func TestOneFOneBStructure(t *testing.T) {
	s := mustGen(t, plan(core.OneFOneB, 4, 8, 1))
	last := s.Devices[3]
	want := "F3.0 B3.0 F3.1 B3.1"
	if got := progString(last[:4]); got != want {
		t.Errorf("last device head = %q, want %q", got, want)
	}
	first := s.Devices[0]
	want = "F0.0 F0.1 F0.2 F0.3 B0.0 F0.4 B0.1"
	if got := progString(first[:7]); got != want {
		t.Errorf("first device head = %q, want %q", got, want)
	}
}

// 1F1B's raison d'etre: it holds at most ~PP-rank in-flight micro-batches,
// while GPipe holds all of them (Table 4.1 activation memory).
func TestInFlightActivations(t *testing.T) {
	gp := mustGen(t, plan(core.GPipe, 4, 8, 1))
	ob := mustGen(t, plan(core.OneFOneB, 4, 8, 1))
	if got := MaxInFlight(gp.Devices[0]); got != 8 {
		t.Errorf("GPipe in-flight = %d, want 8", got)
	}
	if got := MaxInFlight(ob.Devices[0]); got != 4 {
		t.Errorf("1F1B device 0 in-flight = %d, want 4", got)
	}
	if got := MaxInFlight(ob.Devices[3]); got != 1 {
		t.Errorf("1F1B last device in-flight = %d, want 1", got)
	}
	bf := mustGen(t, plan(core.BreadthFirst, 4, 8, 4))
	if got := MaxInFlight(bf.Devices[0]); got != 32 {
		t.Errorf("breadth-first in-flight = %d, want Nmb*Nloop = 32", got)
	}
}

// The breadth-first program processes each local stage's whole batch
// contiguously, in loop order (Figure 4d).
func TestBreadthFirstStructure(t *testing.T) {
	s := mustGen(t, plan(core.BreadthFirst, 4, 8, 4))
	prog := s.Devices[1]
	// Device 1 owns stages 1, 5, 9, 13.
	wantHead := "F1.0 F1.1 F1.2 F1.3 F1.4 F1.5 F1.6 F1.7 F5.0"
	if got := progString(prog[:9]); got != wantHead {
		t.Errorf("head = %q, want %q", got, wantHead)
	}
	// Backward starts from the last local stage.
	half := 32 // 4 stages x 8 micro-batches of forward
	wantBwd := "B13.0 B13.1"
	if got := progString(prog[half : half+2]); got != wantBwd {
		t.Errorf("backward head = %q, want %q", got, wantBwd)
	}
}

// Depth-first processes micro-batches in sequences of PP through each local
// stage (chunk) in turn.
func TestDepthFirstStructure(t *testing.T) {
	s := mustGen(t, plan(core.DepthFirst, 4, 8, 2))
	prog := s.Devices[0]
	// Warmup for device 0, PP=4, Loops=2: 2*(4-1) + 1*4 = 10 forwards.
	// Forward order: chunk 0 micro 0..3 (stages 0), chunk 1 micro 0..3
	// (stage 4), then chunk 0 micro 4..7, ...
	wantHead := "F0.0 F0.1 F0.2 F0.3 F4.0 F4.1 F4.2 F4.3 F0.4 F0.5"
	if got := progString(prog[:10]); got != wantHead {
		t.Errorf("head = %q, want %q", got, wantHead)
	}
	// First backward is the last chunk (stage 4) of micro-batch 0.
	for _, op := range prog {
		if op.Kind == Backward {
			if op.Stage != 4 || op.Micro != 0 {
				t.Errorf("first backward = %v, want B4.0", op)
			}
			break
		}
	}
}

func TestDepthFirstRejectsUnevenMicro(t *testing.T) {
	p := plan(core.DepthFirst, 4, 6, 2)
	if _, err := Generate(p); err == nil {
		t.Fatal("expected error for NumMicro not a multiple of PP")
	}
}

// Appendix C / Figure 9: DP-FS restore and reduce counts. Breadth-first
// aggregates per stage (2 restores + 1 reduce per stage per batch);
// depth-first repeats them per micro-batch (Eq. 24 vs 26).
func TestDPFSNetworkOpCounts(t *testing.T) {
	mk := func(m core.Method) core.Plan {
		p := plan(m, 1, 4, 4)
		p.DP = 4
		p.Sharding = core.DPFS
		return p
	}
	bf := mustGen(t, mk(core.NoPipelineBF))
	df := mustGen(t, mk(core.NoPipelineDF))
	cbf := Counts(bf)
	cdf := Counts(df)
	// BF: 4 stages x 2 passes = 8 restores; 4 reduces.
	if cbf[Restore] != 8 || cbf[Reduce] != 4 {
		t.Errorf("BF restores/reduces = %d/%d, want 8/4", cbf[Restore], cbf[Reduce])
	}
	// DF: 4 stages x 2 passes x 4 micro-batches = 32 restores; 16 reduces.
	if cdf[Restore] != 32 || cdf[Reduce] != 16 {
		t.Errorf("DF restores/reduces = %d/%d, want 32/16", cdf[Restore], cdf[Reduce])
	}
	// The factor-of-Nmb repetition is the paper's headline DP-FS argument.
	if cdf[Restore] != cbf[Restore]*4 {
		t.Errorf("DF should repeat restores Nmb times")
	}

	// Pipelined breadth-first with DP-FS: 2 restores and 1 reduce per stage.
	p := plan(core.BreadthFirst, 4, 8, 4)
	p.DP = 2
	p.Sharding = core.DPFS
	s := mustGen(t, p)
	c := Counts(s)
	if c[Restore] != 2*16 || c[Reduce] != 16 {
		t.Errorf("pipelined BF restores/reduces = %d/%d, want 32/16", c[Restore], c[Reduce])
	}
}

func TestReduceCountsWithDP(t *testing.T) {
	for _, m := range []core.Method{core.GPipe, core.OneFOneB, core.DepthFirst, core.BreadthFirst} {
		loops := 1
		if m.Looped() {
			loops = 2
		}
		p := plan(m, 4, 8, loops)
		p.DP = 4
		s := mustGen(t, p)
		c := Counts(s)
		want := 4 * loops // one reduce per stage
		if c[Reduce] != want {
			t.Errorf("%v: reduces = %d, want %d", m, c[Reduce], want)
		}
	}
}

// Property test: invariants hold across the whole (method, PP, Nmb, Loops)
// lattice the generators accept.
func TestInvariantsProperty(t *testing.T) {
	methods := []core.Method{core.GPipe, core.OneFOneB, core.DepthFirst,
		core.BreadthFirst, core.NoPipelineDF, core.NoPipelineBF}
	f := func(mi, ppE, nmbX, loopE, dpE uint8) bool {
		m := methods[int(mi)%len(methods)]
		pp := 1 << (ppE % 4) // 1..8
		loops := 1
		if m.Looped() || !m.Pipelined() {
			loops = 1 << (loopE % 4)
		}
		nmb := pp * (1 + int(nmbX)%5)
		if m == core.NoPipelineDF || m == core.NoPipelineBF {
			nmb = 1 + int(nmbX)%8
		}
		p := plan(m, pp, nmb, loops)
		p.DP = 1 << (dpE % 3)
		if p.DP > 1 && (m == core.NoPipelineBF || m == core.BreadthFirst) && loops > 0 {
			p.Sharding = core.DPFS
		}
		s, err := Generate(p)
		if err != nil {
			return false
		}
		return Check(s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCheckCatchesCorruption corrupts generated programs against every
// invariant Check documents and pins the first error Check returns, on a
// non-looped GPipe plan, a looped DP-FS breadth-first plan and a
// V-schedule plan (whose zigzag placement gives each device an early and
// a late stage). The texts were recorded with the original Check, which
// reset and rescanned every (stage, micro-batch) row once per device; the
// linear Check must return the same first error. A "" want means Check
// accepts the corruption, and a base missing from want skips it (the
// looped stage orders need two stages per device).
func TestCheckCatchesCorruption(t *testing.T) {
	gpipe := plan(core.GPipe, 4, 8, 1)
	gpipe.DP = 2
	bf := plan(core.BreadthFirst, 4, 8, 2)
	bf.DP, bf.Sharding = 2, core.DPFS
	v := plan(core.VSchedule, 4, 8, 2)
	v.DP = 2
	bases := map[string]core.Plan{"gpipe": gpipe, "bf": bf, "v": v}

	find := func(prog Program, op Op) int {
		for i, o := range prog {
			if o == op {
				return i
			}
		}
		t.Fatalf("%v not in %s", op, progString(prog))
		return -1
	}
	swap := func(prog Program, a, b Op) {
		i, j := find(prog, a), find(prog, b)
		prog[i], prog[j] = prog[j], prog[i]
	}
	remove := func(prog Program, op Op) Program {
		i := find(prog, op)
		return append(prog[:i:i], prog[i+1:]...)
	}
	prepend := func(prog Program, ops ...Op) Program {
		return append(append(Program(nil), ops...), prog...)
	}
	// withoutRestores drops a program's restores of the given stages (of
	// every stage when none are given).
	withoutRestores := func(prog Program, stages ...int) Program {
		var out Program
		for _, o := range prog {
			drop := o.Kind == Restore && len(stages) == 0
			for _, st := range stages {
				drop = drop || (o.Kind == Restore && o.Stage == st)
			}
			if !drop {
				out = append(out, o)
			}
		}
		return out
	}

	corruptions := []struct {
		name string
		mut  func(s *Schedule)
		want map[string]string
	}{
		{"drop forward", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)[0]
			s.Devices[0] = remove(s.Devices[0], Op{Forward, st, 0})
		}, map[string]string{
			"gpipe": "stage 0 micro 0: 0 forwards, want 1",
			"bf":    "stage 0 micro 0: 0 forwards, want 1",
			"v":     "stage 0 micro 0: 0 forwards, want 1",
		}},
		{"double forward", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)[0]
			s.Devices[0] = prepend(s.Devices[0], Op{Forward, st, 0})
		}, map[string]string{
			"gpipe": "stage 0 micro 0: 2 forwards, want 1",
			"bf":    "stage 0 micro 0: 2 forwards, want 1",
			"v":     "stage 0 micro 0: 2 forwards, want 1",
		}},
		{"backward before forward", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)[0]
			swap(s.Devices[0], Op{Forward, st, 0}, Op{Backward, st, 0})
		}, map[string]string{
			"gpipe": "device 0: backward {0 0} before forward",
			"bf":    "device 0: backward {0 0} before forward",
			"v":     "device 0: backward {0 0} before forward",
		}},
		{"looped forward stage order", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)
			swap(s.Devices[0], Op{Forward, st[0], 0}, Op{Forward, st[1], 0})
		}, map[string]string{
			"bf": "device 0: forward {4 0} before {0 0}",
			"v":  "device 0: forward {7 0} before {0 0}",
		}},
		{"looped backward stage order", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)
			swap(s.Devices[0], Op{Backward, st[0], 0}, Op{Backward, st[1], 0})
		}, map[string]string{
			"bf": "device 0: backward {0 0} before {4 0}",
			"v":  "device 0: backward {0 0} before {7 0}",
		}},
		{"per-batch reduce before its backward", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)[0]
			s.Devices[0] = prepend(remove(s.Devices[0], Op{Reduce, st, -1}), Op{Reduce, st, -1})
		}, map[string]string{
			"gpipe": "device 0: reduce of stage 0 at 0 before last backward at 16",
			"bf":    "device 0: reduce of stage 0 at 0 before last backward at 37",
			"v":     "device 0: reduce of stage 0 at 0 before last backward at 32",
		}},
		{"per-micro reduce before its backward", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)[0]
			s.Devices[0] = prepend(s.Devices[0], Op{Reduce, st, 0})
		}, map[string]string{
			"gpipe": "device 0: reduce {0 0} at 0 before its backward at 9",
			"bf":    "device 0: reduce {0 0} at 0 before its backward at 30",
			"v":     "device 0: reduce {0 0} at 0 before its backward at 7",
		}},
		{"DP-FS stage without restore", func(s *Schedule) {
			s.Plan.Sharding = core.DPFS
			s.Devices[0] = withoutRestores(s.Devices[0], s.Plan.DeviceStages(0)[0])
		}, map[string]string{
			"gpipe": "device 0: forward {0 0} without preceding restore",
			"bf":    "device 0: forward {0 0} without preceding restore",
			"v":     "device 0: forward {0 0} without preceding restore",
		}},
		// Device 0 restores its earlier stages up front and its last stage
		// only after that stage's first forward, mid-program.
		{"DP-FS restore after first use", func(s *Schedule) {
			s.Plan.Sharding = core.DPFS
			st := s.Plan.DeviceStages(0)
			late := st[len(st)-1]
			var ws []Op
			for _, x := range st[:len(st)-1] {
				ws = append(ws, Op{Restore, x, -1})
			}
			prog := prepend(withoutRestores(s.Devices[0]), ws...)
			i := find(prog, Op{Forward, late, 0}) + 1
			s.Devices[0] = append(prog[:i:i], append(Program{{Restore, late, -1}}, prog[i:]...)...)
		}, map[string]string{
			"bf": "device 0: forward {4 0} without preceding restore",
			"v":  "device 0: forward {7 0} without preceding restore",
		}},
		// Device 0 restores device 1's stages too, and device 1 restores
		// nothing: a restore counts only on the device that runs it.
		{"restore of another device's stage", func(s *Schedule) {
			s.Plan.Sharding = core.DPFS
			var ws []Op
			for _, st := range append(s.Plan.DeviceStages(0), s.Plan.DeviceStages(1)...) {
				ws = append(ws, Op{Restore, st, -1})
			}
			for d := range s.Devices {
				s.Devices[d] = withoutRestores(s.Devices[d])
			}
			s.Devices[0] = prepend(s.Devices[0], ws...)
		}, map[string]string{
			"gpipe": "device 1: forward {1 0} without preceding restore",
			"bf":    "device 1: forward {1 0} without preceding restore",
			"v":     "device 1: forward {1 0} without preceding restore",
		}},
		// A reduce is checked against its own device's backwards only.
		{"reduce of another device's stage", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)[0]
			s.Devices[1] = prepend(s.Devices[1], Op{Reduce, st, -1}, Op{Reduce, st, 0})
		}, map[string]string{
			"gpipe": "",
			"bf":    "",
			"v":     "",
		}},
		{"second optimize", func(s *Schedule) {
			s.Devices[1] = prepend(s.Devices[1], Op{Optimize, -1, -1})
		}, map[string]string{
			"gpipe": "device 1: multiple Optimize ops",
			"bf":    "device 1: multiple Optimize ops",
			"v":     "device 1: multiple Optimize ops",
		}},
		{"optimize not last", func(s *Schedule) {
			p := s.Devices[1]
			p[len(p)-1], p[len(p)-2] = p[len(p)-2], p[len(p)-1]
		}, map[string]string{
			"gpipe": "device 1: Optimize not final op (pos 16 of 18)",
			"bf":    "device 1: Optimize not final op (pos 37 of 39)",
			"v":     "device 1: Optimize not final op (pos 33 of 35)",
		}},
		{"wrong owner", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)[0]
			s.Devices[0][find(s.Devices[0], Op{Forward, st, 0})].Stage = s.Plan.DeviceStages(1)[0]
		}, map[string]string{
			"gpipe": "device 0 op F1.0: stage owned by device 1",
			"bf":    "device 0 op F1.0: stage owned by device 1",
			"v":     "device 0 op F1.0: stage owned by device 1",
		}},
		{"micro out of range", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)[0]
			s.Devices[0][find(s.Devices[0], Op{Forward, st, 0})].Micro = s.Plan.NumMicro
		}, map[string]string{
			"gpipe": "device 0 op 0: micro 8 out of range",
			"bf":    "device 0 op 1: micro 8 out of range",
			"v":     "device 0 op 0: micro 8 out of range",
		}},
		{"stage out of range", func(s *Schedule) {
			st := s.Plan.DeviceStages(0)[0]
			s.Devices[0][find(s.Devices[0], Op{Forward, st, 0})].Stage = s.Plan.NumStages()
		}, map[string]string{
			"gpipe": "device 0 op 0: stage 4 out of range",
			"bf":    "device 0 op 1: stage 8 out of range",
			"v":     "device 0 op 0: stage 8 out of range",
		}},
		{"unknown kind", func(s *Schedule) {
			s.Devices[0] = prepend(s.Devices[0], Op{Optimize + 1, 0, 0})
		}, map[string]string{
			"gpipe": "device 0 op 0: unknown kind Kind(5)",
			"bf":    "device 0 op 0: unknown kind Kind(5)",
			"v":     "device 0 op 0: unknown kind Kind(5)",
		}},
		// Completeness is the one check made across devices.
		{"backward missing on the last device", func(s *Schedule) {
			last := len(s.Devices) - 1
			st := s.Plan.DeviceStages(last)[0]
			s.Devices[last] = remove(s.Devices[last], Op{Backward, st, s.Plan.NumMicro - 1})
		}, map[string]string{
			"gpipe": "stage 3 micro 7: 0 backwards, want 1",
			"bf":    "stage 3 micro 7: 0 backwards, want 1",
			"v":     "stage 3 micro 7: 0 backwards, want 1",
		}},
	}
	for _, c := range corruptions {
		for _, base := range []string{"gpipe", "bf", "v"} {
			want, ok := c.want[base]
			if !ok {
				continue
			}
			s := mustGen(t, bases[base])
			c.mut(s)
			got := ""
			if err := Check(s); err != nil {
				got = err.Error()
			}
			if got != want {
				t.Errorf("%s on %s: Check = %q, want %q", c.name, base, got, want)
			}
		}
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Forward, 3, 2}, "F3.2"},
		{Op{Backward, 0, 0}, "B0.0"},
		{Op{Reduce, 1, -1}, "G1"},
		{Op{Restore, 5, 2}, "W5.2"},
		{Op{Optimize, -1, -1}, "S"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.op, got, c.want)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(core.Plan{}); err == nil {
		t.Error("empty plan should fail")
	}
	p := plan(core.GPipe, 8, 4, 1) // too few micro-batches
	if _, err := Generate(p); err == nil {
		t.Error("NumMicro < PP should fail")
	}
}

func progString(prog Program) string {
	parts := make([]string, len(prog))
	for i, op := range prog {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ")
}
