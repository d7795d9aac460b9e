package des

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSequentialStream(t *testing.T) {
	s := New()
	c := s.Stream("compute")
	a := s.Add(c, 1.0, ClassOther)
	b := s.Add(c, 2.0, ClassOther)
	_ = a
	_ = b
	tl, err := s.RunReference()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tl.Makespan-3.0) > 1e-12 {
		t.Errorf("makespan = %v, want 3", tl.Makespan)
	}
	sp := tl.StreamSpans(c)
	if sp[0].Start != 0 || sp[0].End != 1 || sp[1].Start != 1 || sp[1].End != 3 {
		t.Errorf("unexpected spans: %+v", sp)
	}
}

func TestParallelStreamsOverlap(t *testing.T) {
	s := New()
	c := s.Stream("compute")
	n := s.Stream("net")
	s.Add(c, 2.0, ClassFwd)
	s.Add(n, 2.0, ClassSend) // independent: fully overlapped
	tl, err := s.RunReference()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tl.Makespan-2.0) > 1e-12 {
		t.Errorf("independent streams should overlap: makespan = %v", tl.Makespan)
	}
}

func TestCrossStreamDependency(t *testing.T) {
	s := New()
	c := s.Stream("compute")
	n := s.Stream("net")
	f := s.Add(c, 1.0, ClassFwd)
	snd := s.Add(n, 0.5, ClassSend, f)
	s.Add(c, 1.0, ClassOther) // compute continues while send runs
	g := s.Add(c, 1.0, ClassBwd, snd)
	_ = g
	tl, err := s.RunReference()
	if err != nil {
		t.Fatal(err)
	}
	// fwd [0,1], send [1,1.5], more [1,2], bwd [2,3] (dep on send satisfied
	// before stream frontier).
	if math.Abs(tl.Makespan-3.0) > 1e-12 {
		t.Errorf("makespan = %v, want 3", tl.Makespan)
	}
}

func TestDependencyDelaysStart(t *testing.T) {
	s := New()
	a := s.Stream("a")
	b := s.Stream("b")
	long := s.Add(a, 5.0, ClassOther)
	dep := s.Add(b, 1.0, ClassOther, long)
	_ = dep
	tl, err := s.RunReference()
	if err != nil {
		t.Fatal(err)
	}
	sp := tl.StreamSpans(b)[0]
	if sp.Start != 5.0 {
		t.Errorf("dependent task started at %v, want 5", sp.Start)
	}
}

func TestCrossStreamResolvableOrder(t *testing.T) {
	// a: p, w(dep r); b: q(dep p), r. Resolution order: p, q, r, w.
	s := New()
	ca := s.Stream("a")
	cb := s.Stream("b")
	p := s.Add(ca, 1, ClassOther)
	s.Add(cb, 1, ClassOther, p)
	r := s.Add(cb, 1, ClassOther)
	s.Add(ca, 1, ClassOther, r)
	tl, err := s.RunReference()
	if err != nil {
		t.Fatalf("resolvable graph reported deadlock: %v", err)
	}
	// q waits for p [0,1] -> q [1,2]; r queued after q -> [2,3]; w [3,4].
	if math.Abs(tl.Makespan-4.0) > 1e-12 {
		t.Errorf("makespan = %v, want 4", tl.Makespan)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A dependency cycle requires forward references, which Add forbids;
	// patch Deps directly (white-box) to verify the detector.
	s := New()
	ha := s.Stream("a")
	hb := s.Stream("b")
	hA := s.Add(ha, 1, ClassOther)
	hB := s.Add(hb, 1, ClassOther)
	s.tasks[hA].Deps = []TaskID{hB}
	s.tasks[hB].Deps = []TaskID{hA}
	if _, err := s.RunReference(); err == nil {
		t.Fatal("cyclic dependency should deadlock")
	} else if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestNoOverlapWithinStream(t *testing.T) {
	// Property: spans on one stream never overlap, regardless of deps.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		streams := []StreamID{s.Stream("s0"), s.Stream("s1"), s.Stream("s2")}
		var ids []TaskID
		for i := 0; i < 40; i++ {
			var deps []TaskID
			for _, id := range ids {
				if rng.Intn(10) == 0 {
					deps = append(deps, id)
				}
			}
			st := streams[rng.Intn(len(streams))]
			ids = append(ids, s.Add(st, rng.Float64(), ClassOther, deps...))
		}
		tl, err := s.RunReference()
		if err != nil {
			return false
		}
		for _, st := range streams {
			sp := tl.StreamSpans(st)
			for i := 1; i < len(sp); i++ {
				if sp[i].Start < sp[i-1].End-1e-12 {
					return false
				}
			}
		}
		// Dependency respect.
		finish := map[TaskID]float64{}
		start := map[TaskID]float64{}
		for _, sp := range tl.Spans {
			finish[sp.Task] = sp.End
			start[sp.Task] = sp.Start
		}
		for _, task := range s.tasks {
			for _, d := range task.Deps {
				if start[task.ID] < finish[d]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBusyAndClassTime(t *testing.T) {
	s := New()
	c := s.Stream("compute")
	n := s.Stream("net")
	s.AddTagged(c, 1.0, ClassFwd, 0, 0)
	s.AddTagged(c, 3.0, ClassBwd, 0, 0)
	s.AddTagged(n, 2.0, ClassReduce, 0, -1)
	tl, err := s.RunReference()
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.BusyTime(c); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("busy(compute) = %v, want 4", got)
	}
	if got := tl.ClassTime(c, ClassBwd); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("class(bwd) = %v, want 3", got)
	}
	if got := tl.ClassTime(-1, ClassReduce); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("class(reduce) = %v, want 2", got)
	}
}

func TestZeroDurationTasks(t *testing.T) {
	s := New()
	c := s.Stream("c")
	a := s.Add(c, 0, ClassOther)
	b := s.Add(c, 1, ClassOther, a)
	_ = b
	tl, err := s.RunReference()
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != 1 {
		t.Errorf("makespan = %v, want 1", tl.Makespan)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative duration")
		}
	}()
	s := New()
	c := s.Stream("c")
	s.Add(c, -1, ClassOther)
}

func TestPanicsOnUnknownDep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unknown dependency")
		}
	}()
	s := New()
	c := s.Stream("c")
	s.Add(c, 1, ClassOther, TaskID(99))
}

func TestDeterminism(t *testing.T) {
	build := func() *Timeline {
		s := New()
		c := s.Stream("c")
		n := s.Stream("n")
		var prev TaskID = -1
		for i := 0; i < 20; i++ {
			var deps []TaskID
			if prev >= 0 {
				deps = append(deps, prev)
			}
			id := s.Add(c, float64(i%3)+0.5, ClassOther, deps...)
			s.Add(n, 0.25, ClassOther, id)
			prev = id
		}
		tl, err := s.RunReference()
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	a, b := build(), build()
	if a.Makespan != b.Makespan || len(a.Spans) != len(b.Spans) {
		t.Fatal("simulation is not deterministic")
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			t.Fatalf("span %d differs between runs", i)
		}
	}
}

// TestIndexedTimelineAccessors checks that an indexed timeline answers
// BusyTime, ClassTime and StreamSpans through its offsets exactly as the
// full scans of an unindexed one do, on randomized graphs.
func TestIndexedTimelineAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		s := New()
		nStreams := 1 + rng.Intn(6)
		for i := 0; i < nStreams; i++ {
			s.Stream("s")
		}
		var ids []TaskID
		for i := 0; i < 1+rng.Intn(100); i++ {
			var deps []TaskID
			if len(ids) > 0 && rng.Intn(2) == 0 {
				deps = append(deps, ids[rng.Intn(len(ids))])
			}
			class := Class(rng.Intn(len(classNames)))
			ids = append(ids, s.Add(StreamID(rng.Intn(nStreams)), rng.Float64(), class, deps...))
		}
		ref, err := s.RunReference()
		if err != nil {
			t.Fatal(err)
		}
		// RunReference sorts by stream first, so its spans are already
		// laid out stream by stream.
		offsets := make([]int, nStreams+1)
		for _, sp := range ref.Spans {
			offsets[sp.Stream+1]++
		}
		for i := 0; i < nStreams; i++ {
			offsets[i+1] += offsets[i]
		}
		idx := NewIndexedTimeline(ref.Spans, offsets, ref.Makespan)
		for st := StreamID(-1); int(st) < nStreams; st++ {
			if st >= 0 {
				if idx.BusyTime(st) != ref.BusyTime(st) {
					t.Fatalf("trial %d: BusyTime(%d) differs", trial, st)
				}
				if !reflect.DeepEqual(idx.StreamSpans(st), ref.StreamSpans(st)) {
					t.Fatalf("trial %d: StreamSpans(%d) differs", trial, st)
				}
			}
			for c := range classNames {
				if idx.ClassTime(st, Class(c)) != ref.ClassTime(st, Class(c)) {
					t.Fatalf("trial %d: ClassTime(%d, %v) differs", trial, st, Class(c))
				}
			}
		}
	}
}

// TestRunRepeatable: RunReference does not mutate the Sim, so repeated
// runs agree.
func TestRunRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	streams := []StreamID{s.Stream("a"), s.Stream("b"), s.Stream("c")}
	var ids []TaskID
	for i := 0; i < 100; i++ {
		var deps []TaskID
		if len(ids) > 0 && rng.Intn(2) == 0 {
			deps = append(deps, ids[rng.Intn(len(ids))])
		}
		ids = append(ids, s.Add(streams[rng.Intn(len(streams))], float64(rng.Intn(5)), ClassOther, deps...))
	}
	a, err := s.RunReference()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunReference()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Spans, b.Spans) || a.Makespan != b.Makespan {
		t.Fatal("repeated RunReference on one Sim diverged")
	}
}

// TestArenaDepsIsolation guards the per-task dependency lists: appending
// dependencies to one task (AddDep) must never clobber the list of a task
// created right after it.
func TestArenaDepsIsolation(t *testing.T) {
	s := New()
	st := s.Stream("c")
	a := s.Add(st, 1, ClassOther)
	b := s.Add(st, 1, ClassOther, a)
	c := s.Add(st, 1, ClassOther, a)
	s.AddDep(b, a)
	if got := s.tasks[c].Deps; len(got) != 1 || got[0] != a {
		t.Fatalf("task c's deps clobbered: %v", got)
	}
	if got := s.tasks[b].Deps; len(got) != 2 || got[0] != a || got[1] != a {
		t.Fatalf("task b's deps wrong: %v", got)
	}
	if _, err := s.RunReference(); err != nil {
		t.Fatal(err)
	}
}
