package memsim

import (
	"sync"
	"sync/atomic"

	"bfpp/internal/core"
	"bfpp/internal/model"
)

// The estimate memo is a two-level model -> plan cache: the outer level
// resolves the (rarely changing) model architecture to its plan cache, and
// the hot path hashes only the Plan. A lock-free pointer to the last-used
// model's cache skips even the outer lookup on the common
// one-model-per-sweep pattern, so the full Transformer struct (which
// contains a string) is no longer hashed on every lookup. The grid search
// asks for the same estimate at least twice per candidate (feasibility
// pruning in Enumerate, then the Result breakdown in the engine).
//
// The memo stays because of the V-schedule: its exact Traits.InFlight hook
// rescans every device program for the in-flight peak on each Estimate,
// and the memo runs that scan once per plan. With CachedEstimate reduced
// to a plain Estimate call, one traced bfppbench appendix-e-large run
// (seed 7, 2 vCPUs, go1.24.0) read search.enumerate_ms 1.04 against 0.23
// with the memo, every exact count unchanged.

// planCache memoizes Estimate for one model architecture.
type planCache struct {
	model model.Transformer
	plans sync.Map // core.Plan -> Breakdown
}

var (
	modelCaches sync.Map // model.Transformer -> *planCache
	lastCache   atomic.Pointer[planCache]
)

// CachedEstimate is Estimate memoized per (model, plan). The plan space a
// search enumerates is small (hundreds of configurations per model), so the
// cache is unbounded by design.
func CachedEstimate(m model.Transformer, p core.Plan) Breakdown {
	c := lastCache.Load()
	if c == nil || c.model != m {
		if v, ok := modelCaches.Load(m); ok {
			c = v.(*planCache)
		} else {
			//lint:allow globalstate memo cache keyed by (model, plan); entries are pure Estimate values, content is call-order independent
			v, _ := modelCaches.LoadOrStore(m, &planCache{model: m})
			c = v.(*planCache)
		}
		//lint:allow globalstate single-entry accelerator in front of the memo cache; same deterministic content
		lastCache.Store(c)
	}
	if v, ok := c.plans.Load(p); ok {
		return v.(Breakdown)
	}
	b := Estimate(m, p)
	c.plans.Store(p, b)
	return b
}
