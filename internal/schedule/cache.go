package schedule

import (
	"errors"
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

// cacheEntry is one memoized generation: the checked device programs and
// their worst device's MaxInFlight, or the error Generate/Check produced
// for this key. The first reader of a key stores an empty entry, which is
// filled once; concurrent first readers wait for that fill.
type cacheEntry struct {
	once    sync.Once
	devices []Program
	peak    int
	err     error
}

var (
	cache                sync.Map // Key -> *cacheEntry
	cacheHits, cacheMiss atomic.Int64
	errFillPanicked      = errors.New("schedule: generating or checking this schedule key panicked")
)

// Cached returns the checked schedule for the plan, memoizing generation
// and invariant checking per Key. The returned Schedule carries the
// caller's plan but shares the (immutable) device programs with every
// other plan of the same key; callers must not mutate them.
func Cached(p core.Plan) (*Schedule, error) {
	e := cached(p)
	if e.err != nil {
		return nil, e.err
	}
	return &Schedule{Plan: p, Devices: e.devices}, nil
}

// cached returns the filled memo entry of the plan's key, generating and
// checking its programs on a miss: Cached without the Schedule wrapper,
// so the replay and the V-schedule's InFlight hook read the entry without
// allocating. Each key is generated once, and a reader that finds its
// entry still being filled waits for it, so the miss count is the number
// of distinct keys read.
func cached(p core.Plan) *cacheEntry {
	k := KeyOf(p)
	v, hit := cache.Load(k)
	if !hit {
		//lint:allow globalstate memo cache keyed by Key(p); entries are pure Generate+Check results, content is call-order independent
		v, hit = cache.LoadOrStore(k, &cacheEntry{})
	}
	e := v.(*cacheEntry)
	if hit {
		//lint:allow globalstate hit/miss counters are observability only; they never reach schedule or table bytes
		cacheHits.Add(1)
	} else {
		//lint:allow globalstate hit/miss counters are observability only; they never reach schedule or table bytes
		cacheMiss.Add(1)
	}
	e.once.Do(func() {
		// Overwritten below unless Generate or Check panics: the entry is
		// then filled for good, and later readers get this error, not an
		// empty program set.
		e.err = errFillPanicked
		s, err := Generate(p)
		if err == nil {
			err = Check(s)
		}
		e.err = err
		if err == nil {
			e.devices = s.Devices
			for _, prog := range s.Devices {
				e.peak = max(e.peak, MaxInFlight(prog))
			}
		}
	})
	return e
}

// CacheStats returns the cumulative hit and miss counts of the schedule
// memo cache (used by tests and the perf harness).
func CacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMiss.Load()
}
