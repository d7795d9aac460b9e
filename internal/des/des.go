// Package des holds the execution-timeline types of the simulator and a
// small deterministic discrete-event executor built around in-order
// execution streams, mirroring the CUDA stream model the paper's
// implementation targets (Appendix D): each device exposes a compute
// stream and one or more communication streams, every operation is
// enqueued on exactly one stream, streams execute their operations
// strictly in FIFO order, and cross-stream ordering is expressed with
// dependency edges (the analogue of CUDA events).
//
// Overlap between computation and communication is therefore not asserted
// anywhere: it emerges (or fails to emerge) from the schedule structure,
// which is exactly the property the paper's breadth-first schedule exploits.
//
// The engine simulates plans with the schedule replay
// (internal/schedule), which fills a Timeline through NewIndexedTimeline.
// Sim and its RunReference loop share no code with that replay and serve
// as its test oracle; the trace renderers, the figures and the service
// read the Timeline either way.
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
	// timeline was built by NewIndexedTimeline; timelines built by hand or
	// by RunReference have none and fall back to full scans.
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

// NewIndexedTimeline returns the timeline of spans laid out stream by
// stream, each stream's spans in execution order, with offsets[s] and
// offsets[s+1] bounding stream s's spans: the per-stream accessors then
// read one contiguous slice instead of scanning every span. Spans and
// offsets are retained, not copied.
func NewIndexedTimeline(spans []Span, offsets []int, makespan float64) *Timeline {
	return &Timeline{Spans: spans, Makespan: makespan, offsets: offsets}
}

// Sim accumulates streams and tasks and runs them to completion with
// RunReference. A Sim is not safe for concurrent use.
type Sim struct {
	streams []string
	queues  [][]TaskID
	tasks   []Task
}

// New returns an empty simulator.
func New() *Sim { return &Sim{} }

// Stream creates a new named execution stream.
func (s *Sim) Stream(name string) StreamID {
	id := StreamID(len(s.streams))
	s.streams = append(s.streams, name)
	s.queues = append(s.queues, nil)
	return id
}

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
	s.tasks = append(s.tasks, Task{ID: id, Stream: st, Dur: dur, Deps: append([]TaskID(nil), deps...),
		Class: class, Stage: stage, Micro: micro})
	s.queues[st] = append(s.queues[st], id)
	return id
}

// AddDep appends dependencies to an existing task. Unlike Add, it accepts
// any task created so far, enabling cross-stream wiring in a second pass
// (dependency cycles introduced this way are caught by RunReference as
// deadlocks).
func (s *Sim) AddDep(t TaskID, deps ...TaskID) {
	if int(t) < 0 || int(t) >= len(s.tasks) {
		panic(fmt.Sprintf("des: AddDep on unknown task %d", t))
	}
	for _, d := range deps {
		if int(d) < 0 || int(d) >= len(s.tasks) {
			panic(fmt.Sprintf("des: AddDep with unknown dependency %d", d))
		}
	}
	s.tasks[t].Deps = append(s.tasks[t].Deps, deps...)
}

// RunReference executes all tasks and returns the timeline, its spans
// sorted by (Stream, Start, Task). Every pass drains each stream as far as
// dependencies allow. It returns an error if the task graph deadlocks (a
// cross-stream dependency cycle), identifying one blocked task. It is the
// executable specification the engine's replay is tested against: the
// oracle in internal/engine's tests builds each plan's task graph and
// asserts the replay reproduces this timeline bit for bit.
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
