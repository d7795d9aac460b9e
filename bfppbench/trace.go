package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into a layer: its name, its interval since the
// tracer's origin, the span that caused it (-1 for none) and the op it
// served.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	// Reserved up front so growing the slice does not allocate inside the
	// stretches whose allocations are counted.
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<19)}
}

// begin opens a span and returns its index, the id children name as parent.
// A nil tracer records nothing.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent, op: op})
	return len(t.spans) - 1
}

// end closes a span and returns its duration (0 on a nil tracer).
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[i].end = time.Since(t.origin)
	return t.spans[i].end - t.spans[i].start
}

// layerTime is the call count and summed duration of one span name.
type layerTime struct {
	n     int
	total time.Duration
}

// meanUS and meanMS return the mean call duration (0 without calls).
func (l layerTime) meanUS() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.total.Nanoseconds()) / 1e3 / float64(l.n)
}

func (l layerTime) meanMS() float64 { return l.meanUS() / 1e3 }

// totals sums the spans by name.
func (t *tracer) totals() map[string]layerTime {
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.name]
		lt.n++
		lt.total += s.end - s.start
		out[s.name] = lt
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (the JSON object format
// Perfetto and chrome://tracing open). Every span is a complete event on
// one thread, so nesting follows from the intervals; the args carry the
// span's own id, its parent's and the op it served.
func (t *tracer) writeChrome(path, stamp string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	meta, err := json.Marshal(map[string]any{
		"benchmark": stamp, "go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	})
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[", meta)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		cat, _, _ := strings.Cut(s.name, ".")
		fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}",
			s.name, cat, float64(s.start.Nanoseconds())/1e3, float64((s.end-s.start).Nanoseconds())/1e3, i, s.parent, s.op)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
