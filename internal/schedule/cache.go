package schedule

import (
	"sync"
	"sync/atomic"

	"bfpp/internal/core"
)

// Key captures exactly the plan fields the device programs depend on.
// Plans that differ only in TP, MicroBatch or the data-parallel group size
// (beyond DP > 1, which decides whether reductions are emitted) share one
// program set — in an Appendix E enumeration most candidates hit the cache.
// The key identifies the generator (via Method) plus the generator's own
// extra parameter (Traits.KeyExtra: the hybrid sequence length, the
// V-schedule in-flight cap).
type Key struct {
	Method   core.Method
	PP       int
	NumMicro int
	Loops    int
	Extra    int // generator-declared extra parameter; 0 when none
	Sharding core.Sharding
	Reduce   bool // DP > 1, i.e. whether Reduce ops are emitted
}

// KeyOf returns the schedule cache key of a plan.
func KeyOf(p core.Plan) Key {
	k := Key{
		Method:   p.Method,
		PP:       p.PP,
		NumMicro: p.NumMicro,
		Loops:    p.Loops,
		Sharding: p.Sharding,
		Reduce:   needReduce(p),
	}
	if extra := TraitsOf(p.Method).KeyExtra; extra != nil {
		k.Extra = extra(p)
	}
	return k
}

// cacheEntry is one memoized generation: the checked device programs, or
// the error Generate/Check produced for this key.
type cacheEntry struct {
	devices []Program
	err     error
}

var (
	cache                sync.Map // Key -> *cacheEntry
	cacheHits, cacheMiss atomic.Int64
)

// Cached returns the checked schedule for the plan, memoizing generation
// and invariant checking per Key. The returned Schedule carries the
// caller's plan but shares the (immutable) device programs with every
// other plan of the same key; callers must not mutate them.
func Cached(p core.Plan) (*Schedule, error) {
	devices, err := programs(p)
	if err != nil {
		return nil, err
	}
	return &Schedule{Plan: p, Devices: devices}, nil
}

// programs returns the memoized checked device programs of the plan's key,
// generating and checking them on a miss: Cached without the Schedule
// wrapper, so the replay reads the programs without allocating.
func programs(p core.Plan) ([]Program, error) {
	k := KeyOf(p)
	if v, ok := cache.Load(k); ok {
		//lint:allow globalstate hit/miss counters are observability only; they never reach schedule or table bytes
		cacheHits.Add(1)
		e := v.(*cacheEntry)
		return e.devices, e.err
	}
	//lint:allow globalstate hit/miss counters are observability only; they never reach schedule or table bytes
	cacheMiss.Add(1)
	e := &cacheEntry{}
	s, err := Generate(p)
	if err == nil {
		err = Check(s)
	}
	if err != nil {
		e.err = err
	} else {
		e.devices = s.Devices
	}
	// A racing fill for the same key computes the identical entry; keep
	// whichever landed first so all callers share one program set.
	//lint:allow globalstate memo cache keyed by Key(p); entries are pure Generate+Check results, content is call-order independent
	if v, raced := cache.LoadOrStore(k, e); raced {
		e = v.(*cacheEntry)
	}
	return e.devices, e.err
}

// CacheStats returns the cumulative hit and miss counts of the schedule
// memo cache (used by tests and the perf harness).
func CacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMiss.Load()
}
