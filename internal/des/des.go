// Package des implements a small deterministic discrete-event simulator
// built around in-order execution streams, mirroring the CUDA stream model
// the paper's implementation targets (Appendix D): each device exposes a
// compute stream and one or more communication streams, every operation is
// enqueued on exactly one stream, streams execute their operations strictly
// in FIFO order, and cross-stream ordering is expressed with dependency
// edges (the analogue of CUDA events).
//
// Overlap between computation and communication is therefore not asserted
// anywhere: it emerges (or fails to emerge) from the schedule structure,
// which is exactly the property the paper's breadth-first schedule exploits.
//
// Run executes the task graph with an indexed worklist (O(tasks + edges));
// RunReference keeps the original stream-rescanning loop as an executable
// specification. Both produce bit-identical timelines, which the test suite
// asserts on randomized graphs.
package des

import (
	"fmt"
	"math"
	"sort"
)

// StreamID identifies an execution stream.
type StreamID int

// TaskID identifies an enqueued task.
type TaskID int

// Class categorizes a task for rendering and accounting. It is a small
// interned enum — Task and Span carry no strings, so clearing or copying
// span slices never forces pointer-aware memory clears — and the names are
// resolved through a string table at render time only.
type Class uint8

const (
	// ClassOther is the zero class for uncategorized tasks.
	ClassOther Class = iota
	// ClassFwd is a forward compute pass.
	ClassFwd
	// ClassBwd is a backward compute pass.
	ClassBwd
	// ClassSend is a pipeline-parallel activation/gradient transfer.
	ClassSend
	// ClassReduce is a data-parallel gradient reduction.
	ClassReduce
	// ClassRestore is a DP-FS weight reconstruction.
	ClassRestore
	// ClassOpt is the optimizer step.
	ClassOpt
)

var classNames = [...]string{"other", "fwd", "bwd", "send", "reduce", "restore", "opt"}

// String returns the class's render-time name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Task is one unit of work on a stream. A task starts when (a) all its
// dependencies have finished and (b) all earlier tasks on its stream have
// finished; it then runs for Dur seconds without preemption.
type Task struct {
	// ID is assigned by Add.
	ID TaskID
	// Stream is the stream the task executes on.
	Stream StreamID
	// Dur is the execution time in seconds (may be zero for pure
	// synchronization points).
	Dur float64
	// Deps lists tasks that must complete before this one may start.
	Deps []TaskID
	// Class is the task's category, used by renderers and accounting.
	Class Class
	// Stage and Micro carry pipeline metadata for rendering (negative when
	// not applicable).
	Stage, Micro int
}

// Span is the execution record of one task.
type Span struct {
	Task         TaskID
	Stream       StreamID
	Class        Class
	Stage, Micro int
	Start, End   float64
}

// Dur returns the span duration.
func (s Span) Dur() float64 { return s.End - s.Start }

// Timeline is the result of a simulation run.
type Timeline struct {
	// Spans holds one record per task, sorted by (Stream, Start).
	Spans []Span
	// Makespan is the completion time of the last task.
	Makespan float64
	// StreamNames maps StreamID to the name given at creation.
	StreamNames []string

	// offsets[s]:offsets[s+1] bounds stream s's spans inside Spans when the
	// timeline was produced by the indexed fast path; nil timelines built by
	// hand or by RunReference fall back to full scans.
	offsets []int
}

// streamSpans returns stream s's contiguous span slice when the index is
// available.
func (t *Timeline) streamSpans(s StreamID) ([]Span, bool) {
	if t.offsets == nil || int(s) < 0 || int(s)+1 >= len(t.offsets) {
		return nil, false
	}
	return t.Spans[t.offsets[s]:t.offsets[s+1]], true
}

// BusyTime returns the total occupied time of a stream.
func (t *Timeline) BusyTime(s StreamID) float64 {
	var b float64
	if spans, ok := t.streamSpans(s); ok {
		for _, sp := range spans {
			b += sp.Dur()
		}
		return b
	}
	for _, sp := range t.Spans {
		if sp.Stream == s {
			b += sp.Dur()
		}
	}
	return b
}

// ClassTime returns the total duration of spans of the given class on a
// stream (or on all streams when stream is negative).
func (t *Timeline) ClassTime(stream StreamID, class Class) float64 {
	var b float64
	if stream >= 0 {
		if spans, ok := t.streamSpans(stream); ok {
			for _, sp := range spans {
				if sp.Class == class {
					b += sp.Dur()
				}
			}
			return b
		}
	}
	for _, sp := range t.Spans {
		if (stream < 0 || sp.Stream == stream) && sp.Class == class {
			b += sp.Dur()
		}
	}
	return b
}

// StreamSpans returns the spans of one stream in start order.
func (t *Timeline) StreamSpans(s StreamID) []Span {
	if spans, ok := t.streamSpans(s); ok {
		return append([]Span(nil), spans...)
	}
	var out []Span
	for _, sp := range t.Spans {
		if sp.Stream == s {
			out = append(out, sp)
		}
	}
	return out
}

// Sim accumulates streams and tasks and runs them to completion. A Sim is
// not safe for concurrent use; concurrent simulations each use their own
// (the engine pools and Resets them).
type Sim struct {
	streams []string
	queues  [][]TaskID
	tasks   []Task

	// depArena backs the Deps slices of tasks created by Add/AddTagged, so
	// enqueueing a task with dependencies costs no per-task allocation.
	depArena []TaskID
	// nDeps counts all dependency edges (arena-backed and AddDep-appended),
	// sizing the reverse adjacency built by Run.
	nDeps int

	// scratch holds Run's reusable working buffers. Only buffers that do
	// not escape into the returned Timeline live here.
	scratch runScratch
}

// grow resizes a reusable buffer to length n, reallocating only when the
// retained capacity is too small. Contents are unspecified; callers clear
// what they need.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// runScratch is Run's reusable working state.
type runScratch struct {
	indeg      []int32
	revOff     []int32
	rev        []TaskID
	depFree    []float64
	head       []int
	streamFree []float64
	stack      []int
	inStack    []bool
}

// New returns an empty simulator.
func New() *Sim { return &Sim{} }

// Reset clears all streams and tasks while retaining allocated capacity,
// so one Sim can be reused across simulations.
func (s *Sim) Reset() {
	s.streams = s.streams[:0]
	for i := range s.queues {
		s.queues[i] = s.queues[i][:0]
	}
	s.queues = s.queues[:0]
	s.tasks = s.tasks[:0]
	s.depArena = s.depArena[:0]
	s.nDeps = 0
}

// Reserve pre-sizes the simulator for about nTasks tasks carrying nDeps
// total dependency edges, eliminating growth reallocations on the build
// path. It is a hint: the simulator grows past it as needed.
func (s *Sim) Reserve(nTasks, nDeps int) {
	if cap(s.tasks) < nTasks {
		tasks := make([]Task, len(s.tasks), nTasks)
		copy(tasks, s.tasks)
		s.tasks = tasks
	}
	if cap(s.depArena) < nDeps {
		arena := make([]TaskID, len(s.depArena), nDeps)
		copy(arena, s.depArena)
		s.depArena = arena
	}
}

// Stream creates a new named execution stream.
func (s *Sim) Stream(name string) StreamID {
	id := StreamID(len(s.streams))
	s.streams = append(s.streams, name)
	if len(s.queues) < cap(s.queues) {
		// Reuse the queue storage a Reset left behind.
		s.queues = s.queues[:len(s.queues)+1]
		s.queues[id] = s.queues[id][:0]
	} else {
		s.queues = append(s.queues, nil)
	}
	return id
}

// ReserveStream pre-sizes stream st's queue for about n tasks.
func (s *Sim) ReserveStream(st StreamID, n int) {
	if int(st) < 0 || int(st) >= len(s.queues) {
		panic(fmt.Sprintf("des: ReserveStream on unknown stream %d", st))
	}
	if q := s.queues[st]; cap(q) < n {
		nq := make([]TaskID, len(q), n)
		copy(nq, q)
		s.queues[st] = nq
	}
}

// NumTasks returns the number of enqueued tasks.
func (s *Sim) NumTasks() int { return len(s.tasks) }

// Add enqueues a task at the tail of stream st and returns its ID.
func (s *Sim) Add(st StreamID, dur float64, class Class, deps ...TaskID) TaskID {
	return s.AddTagged(st, dur, class, -1, -1, deps...)
}

// AddTagged is Add with pipeline metadata (stage and micro-batch indices)
// attached for rendering.
func (s *Sim) AddTagged(st StreamID, dur float64, class Class, stage, micro int, deps ...TaskID) TaskID {
	if int(st) < 0 || int(st) >= len(s.streams) {
		panic(fmt.Sprintf("des: unknown stream %d", st))
	}
	if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		panic(fmt.Sprintf("des: invalid duration %v for %s", dur, class))
	}
	id := TaskID(len(s.tasks))
	for _, d := range deps {
		if int(d) < 0 || int(d) >= len(s.tasks) {
			panic(fmt.Sprintf("des: task %s depends on unknown task %d", class, d))
		}
	}
	var ds []TaskID
	if len(deps) > 0 {
		// Copy into the shared arena; the full slice expression pins the
		// capacity so a later AddDep reallocates instead of clobbering a
		// neighboring task's dependencies.
		base := len(s.depArena)
		s.depArena = append(s.depArena, deps...)
		ds = s.depArena[base:len(s.depArena):len(s.depArena)]
		s.nDeps += len(deps)
	}
	t := Task{ID: id, Stream: st, Dur: dur, Deps: ds,
		Class: class, Stage: stage, Micro: micro}
	s.tasks = append(s.tasks, t)
	s.queues[st] = append(s.queues[st], id)
	return id
}

// AddDep appends dependencies to an existing task. Unlike Add, it accepts
// any task created so far, enabling cross-stream wiring in a second pass
// (dependency cycles introduced this way are caught by Run as deadlocks).
// The combined list is rewritten into the arena, so wiring a whole
// schedule's transfers costs amortized-zero allocations.
func (s *Sim) AddDep(t TaskID, deps ...TaskID) {
	if int(t) < 0 || int(t) >= len(s.tasks) {
		panic(fmt.Sprintf("des: AddDep on unknown task %d", t))
	}
	for _, d := range deps {
		if int(d) < 0 || int(d) >= len(s.tasks) {
			panic(fmt.Sprintf("des: AddDep with unknown dependency %d", d))
		}
	}
	old := s.tasks[t].Deps
	base := len(s.depArena)
	s.depArena = append(s.depArena, old...)
	s.depArena = append(s.depArena, deps...)
	s.tasks[t].Deps = s.depArena[base:len(s.depArena):len(s.depArena)]
	s.nDeps += len(deps)
}

// Run executes all tasks and returns the timeline. It returns an error if
// the task graph deadlocks (a cross-stream dependency cycle), identifying
// one blocked task.
//
// This is the indexed fast path: a reverse-dependency adjacency list and a
// worklist of streams whose head may have become runnable replace the
// repeated full-stream rescans of RunReference, and spans land directly in
// their final (Stream, Start, Task) order — per-stream FIFO execution with
// monotonically assigned task IDs means queue order is already span order,
// so no final sort is needed. Start times are computed with the same
// max-over-dependencies arithmetic, so timelines are bit-identical to the
// reference loop.
func (s *Sim) Run() (*Timeline, error) {
	n := len(s.tasks)
	nq := len(s.queues)
	sc := &s.scratch

	// Span layout: contiguous per stream, in queue (= execution) order.
	// offsets and spans escape into the Timeline; everything else comes
	// from the reusable scratch buffers.
	offsets := make([]int, nq+1)
	for qi, q := range s.queues {
		offsets[qi+1] = offsets[qi] + len(q)
	}
	spans := make([]Span, n)

	// Reverse adjacency in CSR form plus per-task pending counts. The fill
	// pass advances revOff[d] past d's range, so afterwards d's dependents
	// sit in rev[revOff[d-1]:revOff[d]] — one cursor array instead of two.
	indeg := grow(&sc.indeg, n)
	revOff := grow(&sc.revOff, n+1)
	clear(revOff)
	for i := range s.tasks {
		deps := s.tasks[i].Deps
		indeg[i] = int32(len(deps))
		for _, d := range deps {
			revOff[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		revOff[i+1] += revOff[i]
	}
	// revOff[n] is the true edge count (Deps may have been patched
	// directly by white-box tests, bypassing the nDeps bookkeeping).
	rev := grow(&sc.rev, int(revOff[n]))
	for i := range s.tasks {
		for _, d := range s.tasks[i].Deps {
			rev[revOff[d]] = TaskID(i)
			revOff[d]++
		}
	}
	revLo := func(id TaskID) int32 {
		if id == 0 {
			return 0
		}
		return revOff[id-1]
	}

	depFree := grow(&sc.depFree, n) // max finish time over resolved deps
	clear(depFree)
	head := grow(&sc.head, nq)
	clear(head)
	streamFree := grow(&sc.streamFree, nq)
	clear(streamFree)

	// Worklist of streams whose head may be runnable. Seeded in reverse so
	// the initial drain visits streams in creation order (cosmetic only:
	// simulated time does not depend on processing order).
	stack := grow(&sc.stack, nq)[:0]
	inStack := grow(&sc.inStack, nq)
	clear(inStack)
	for qi := nq - 1; qi >= 0; qi-- {
		if len(s.queues[qi]) > 0 {
			stack = append(stack, qi)
			inStack[qi] = true
		}
	}

	remaining := n
	var makespan float64
	for len(stack) > 0 {
		qi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		inStack[qi] = false
		q := s.queues[qi]
		for head[qi] < len(q) {
			id := q[head[qi]]
			if indeg[id] != 0 {
				break
			}
			t := &s.tasks[id]
			start := streamFree[qi]
			if depFree[id] > start {
				start = depFree[id]
			}
			end := start + t.Dur
			streamFree[qi] = end
			if end > makespan {
				makespan = end
			}
			spans[offsets[qi]+head[qi]] = Span{Task: id, Stream: t.Stream, Class: t.Class,
				Stage: t.Stage, Micro: t.Micro, Start: start, End: end}
			head[qi]++
			remaining--
			for _, d := range rev[revLo(id):revOff[id]] {
				indeg[d]--
				if depFree[d] < end {
					depFree[d] = end
				}
				if indeg[d] == 0 {
					// Wake the dependent's stream if it is now runnable at
					// its head. The current stream's own drain loop picks up
					// same-stream dependents without a push.
					sd := int(s.tasks[d].Stream)
					if sd != qi && !inStack[sd] && s.queues[sd][head[sd]] == d {
						stack = append(stack, sd)
						inStack[sd] = true
					}
				}
			}
		}
	}
	sc.stack = stack[:0]

	if remaining > 0 {
		for qi := range s.queues {
			if head[qi] < len(s.queues[qi]) {
				id := s.queues[qi][head[qi]]
				return nil, fmt.Errorf("des: deadlock: task %d (%s) on stream %q blocked",
					id, s.tasks[id].Class, s.streams[qi])
			}
		}
		return nil, fmt.Errorf("des: deadlock with no blocked head (internal error)")
	}

	return &Timeline{Spans: spans, Makespan: makespan,
		StreamNames: append([]string(nil), s.streams...), offsets: offsets}, nil
}

// RunReference executes all tasks with the original rescanning loop: every
// pass drains each stream as far as dependencies allow, and the spans are
// sorted afterwards. It is kept as the executable specification of Run —
// the equivalence tests here and in internal/engine assert bit-identical
// timelines — and as the denominator of the perf harness' des_run ratio
// (scripts/bench.sh).
func (s *Sim) RunReference() (*Timeline, error) {
	n := len(s.tasks)
	finish := make([]float64, n)
	done := make([]bool, n)
	head := make([]int, len(s.queues)) // next index per stream
	streamFree := make([]float64, len(s.queues))
	spans := make([]Span, 0, n)

	remaining := n
	for remaining > 0 {
		progressed := false
		for qi := range s.queues {
			// Drain this stream as far as dependencies allow. Running a
			// ready head immediately is safe: its start time depends only
			// on already-finished tasks and this stream's frontier.
			for head[qi] < len(s.queues[qi]) {
				id := s.queues[qi][head[qi]]
				t := &s.tasks[id]
				ready := true
				start := streamFree[qi]
				for _, d := range t.Deps {
					if !done[d] {
						ready = false
						break
					}
					if finish[d] > start {
						start = finish[d]
					}
				}
				if !ready {
					break
				}
				end := start + t.Dur
				finish[id] = end
				done[id] = true
				streamFree[qi] = end
				spans = append(spans, Span{Task: id, Stream: t.Stream, Class: t.Class,
					Stage: t.Stage, Micro: t.Micro, Start: start, End: end})
				head[qi]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			for qi := range s.queues {
				if head[qi] < len(s.queues[qi]) {
					id := s.queues[qi][head[qi]]
					return nil, fmt.Errorf("des: deadlock: task %d (%s) on stream %q blocked",
						id, s.tasks[id].Class, s.streams[qi])
				}
			}
			return nil, fmt.Errorf("des: deadlock with no blocked head (internal error)")
		}
	}

	var makespan float64
	for _, sp := range spans {
		if sp.End > makespan {
			makespan = sp.End
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Stream != spans[j].Stream {
			return spans[i].Stream < spans[j].Stream
		}
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Task < spans[j].Task
	})
	return &Timeline{Spans: spans, Makespan: makespan,
		StreamNames: append([]string(nil), s.streams...)}, nil
}
