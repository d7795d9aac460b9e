package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples is a set of latencies in milliseconds.
type samples []float64

func (s *samples) add(ds ...time.Duration) {
	for _, d := range ds {
		*s = append(*s, float64(d.Nanoseconds())/1e6)
	}
}

// quantile returns the nearest-rank q-quantile. It refuses a quantile with
// fewer than ten samples beyond it, which would be an unsupported tail.
func (s samples) quantile(q float64) (float64, error) {
	n := len(s)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || (q > 0.5 && n-rank < 10) {
		return 0, fmt.Errorf("%d samples cannot support a p%.0f (needs ten beyond it)", n, 100*q)
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return sorted[max(rank, 1)-1], nil
}

// latencyMetrics records the p50 and p90 of a latency class under the
// given metric-name prefix, and a note with its sample count.
func latencyMetrics(out *outcome, prefix string, s samples) error {
	p50, err := s.quantile(0.5)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	p90, err := s.quantile(0.9)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	out.values[prefix+"_p50_ms"] = p50
	out.values[prefix+"_p90_ms"] = p90
	out.note("%s: n=%d p50=%.3fms p90=%.3fms", prefix, len(s), p50, p90)
	return nil
}

// minSamples is the smallest latency sample whose p90 has ten samples
// beyond it.
const minSamples = 100

// timedLoop is the timed stretch of a run. It lasts --seconds, and longer
// if a latency class still has fewer than minSamples samples then, up to
// three times --seconds; a slow host stretches the loop instead of failing
// the run.
type timedLoop struct {
	start, deadline, hardStop time.Time
	steal0, total0            uint64
}

func startLoop(seconds float64) *timedLoop {
	d := time.Duration(seconds * float64(time.Second))
	l := &timedLoop{start: time.Now()}
	l.deadline, l.hardStop = l.start.Add(d), l.start.Add(3*d)
	l.steal0, l.total0 = cpuTicks()
	return l
}

// over reports whether the loop should start no further op.
func (l *timedLoop) over(cold, hits int) bool {
	now := time.Now()
	return !now.Before(l.hardStop) || (!now.Before(l.deadline) && cold >= minSamples && hits >= minSamples)
}

// end returns the loop's length and notes the share of CPU time the
// hypervisor stole meanwhile, which explains a slow run.
func (l *timedLoop) end(out *outcome) time.Duration {
	elapsed := time.Since(l.start)
	if steal, total := cpuTicks(); total > l.total0 {
		out.note("host steal: %.1f%% of CPU time during the loop", 100*float64(steal-l.steal0)/float64(total-l.total0))
	}
	return elapsed
}

// cpuTicks returns the machine's cumulative steal and total CPU ticks from
// /proc/stat, or zeros where it is unreadable.
func cpuTicks() (steal, total uint64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for k, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if k == 7 {
			steal = v
		}
	}
	return steal, total
}

// median returns the median of a non-empty slice.
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// memDelta measures allocations and GC pause time across a stretch of
// work. The benchmark runs the measured calls on one goroutine with
// nothing else allocating, so the process-wide deltas are theirs.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// stop returns the mallocs, bytes allocated and GC pause time since start.
func (d *memDelta) stop() (mallocs, bytes uint64, pause time.Duration) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - d.before.Mallocs, after.TotalAlloc - d.before.TotalAlloc,
		time.Duration(after.PauseTotalNs - d.before.PauseTotalNs)
}
