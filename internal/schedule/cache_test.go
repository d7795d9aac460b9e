package schedule

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"bfpp/internal/core"
)

func cachePlans() []core.Plan {
	return []core.Plan{
		{Method: core.BreadthFirst, DP: 4, PP: 4, TP: 2, MicroBatch: 1, NumMicro: 8, Loops: 4,
			Sharding: core.DPFS, OverlapDP: true, OverlapPP: true},
		{Method: core.DepthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 2, NumMicro: 8, Loops: 2},
		{Method: core.GPipe, DP: 2, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1},
		{Method: core.OneFOneB, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 8, Loops: 1},
		{Method: core.NoPipelineBF, DP: 4, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 4,
			Sharding: core.DPFS, OverlapDP: true},
		{Method: core.NoPipelineDF, DP: 4, PP: 1, TP: 1, MicroBatch: 1, NumMicro: 4, Loops: 4},
		{Method: core.Hybrid, DP: 1, PP: 4, TP: 1, MicroBatch: 1, NumMicro: 16, Loops: 2, Sequence: 8},
	}
}

func TestCachedMatchesGenerate(t *testing.T) {
	for _, p := range cachePlans() {
		want, err := Generate(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got, err := Cached(p)
		if err != nil {
			t.Fatalf("Cached(%v): %v", p, err)
		}
		if got.Plan != p {
			t.Errorf("%v: cached schedule carries plan %v", p, got.Plan)
		}
		if !reflect.DeepEqual(got.Devices, want.Devices) {
			t.Errorf("%v: cached programs differ from Generate", p)
		}
	}
}

func TestCachedSharesProgramsAcrossEquivalentPlans(t *testing.T) {
	a := core.Plan{Method: core.BreadthFirst, DP: 2, PP: 4, TP: 1, MicroBatch: 1,
		NumMicro: 8, Loops: 2, OverlapDP: true, OverlapPP: true}
	b := a
	b.TP = 8         // not part of the schedule key
	b.MicroBatch = 4 // not part of the schedule key
	b.DP = 16        // DP only matters as DP > 1
	b.OverlapDP = false
	if KeyOf(a) != KeyOf(b) {
		t.Fatalf("keys differ: %+v vs %+v", KeyOf(a), KeyOf(b))
	}
	sa, err := Cached(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Cached(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa.Devices) == 0 || &sa.Devices[0] != &sb.Devices[0] {
		t.Error("equivalent plans should share one cached program set")
	}
	// DP = 1 changes the key (no reductions emitted).
	c := a
	c.DP = 1
	if KeyOf(a) == KeyOf(c) {
		t.Error("DP=1 must change the schedule key")
	}
}

func TestCachedError(t *testing.T) {
	bad := core.Plan{Method: core.DepthFirst, DP: 1, PP: 4, TP: 1, MicroBatch: 1,
		NumMicro: 6, Loops: 1} // NumMicro % PP != 0
	if _, err := Cached(bad); err == nil {
		t.Fatal("invalid plan should fail through the cache")
	}
	// The error must be stable on a cache hit too.
	if _, err := Cached(bad); err == nil {
		t.Fatal("cached error lost on second lookup")
	}
}

func TestCachedConcurrent(t *testing.T) {
	plans := cachePlans()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, p := range plans {
				s, err := Cached(p)
				if err != nil {
					errs[w] = err
					return
				}
				if err := Check(s); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := CacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("cache stats hits=%d misses=%d: expected both nonzero", hits, misses)
	}
}

// freshKeys numbers the keys TestCachedFillsEachKeyOnce reads, so each
// run (-count=N included) reads one no test has read before.
var freshKeys atomic.Int64

// TestCachedFillsEachKeyOnce has several goroutines read one fresh key at
// once: the key is generated once, so misses rise by exactly one and
// every reader gets the same programs.
func TestCachedFillsEachKeyOnce(t *testing.T) {
	p := core.Plan{Method: core.VSchedule, DP: 2, PP: 8, TP: 1, MicroBatch: 1,
		NumMicro: 1000 + int(freshKeys.Add(1)), Loops: 2}
	const readers = 8
	_, missesBefore := CacheStats()
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]*Schedule, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = Cached(p)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		if &got[i].Devices[0] != &got[0].Devices[0] {
			t.Errorf("reader %d got its own program set", i)
		}
	}
	if _, misses := CacheStats(); misses != missesBefore+1 {
		t.Errorf("misses rose by %d for one key read by %d goroutines, want 1", misses-missesBefore, readers)
	}
}
