package schedule

import (
	"fmt"
	"sync"

	"bfpp/internal/core"
)

// Traits declares a generator's search, implementation and memory-model
// metadata. The search layer builds its method families from the family
// fields, the engine derives overlap behavior from Overlap (via the plan
// flags the search sets), and memsim consumes the memory hooks instead of
// switching on the method.
type Traits struct {
	// Family is the short key of the method family the generator belongs
	// to ("bf", "nl", ...). Generators sharing a key are variants of one
	// family (as GPipe and 1F1B share the paper's "non-looped" family).
	// An empty key keeps the method out of the search families.
	Family string
	// FamilyName is the family's display name (the Figure 7 legend); the
	// first registered generator of a family sets it.
	FamilyName string
	// Paper marks the families of the paper's Figure 7 comparison; the
	// default search sweeps only those.
	Paper bool
	// Overlap reports whether the method's implementation overlaps data-
	// and pipeline-parallel communication with compute (Section 5: the
	// paper's implementation does, the Megatron-LM baseline does not).
	// The search layer turns this into Plan.OverlapDP/OverlapPP.
	Overlap bool
	// Shardings lists the data-parallel sharding modes the search
	// enumerates for this method.
	Shardings []core.Sharding

	// InFlight returns the worst-device number of (stage, micro-batch)
	// activation pairs held simultaneously (Table 4.1), driving the
	// activation-checkpoint memory estimate. It is at least Loops for
	// every plan the generator accepts: when the plan's first backward
	// runs, its device has forwarded that micro-batch through all Loops
	// of its local stages and retired none, so memsim's trait-free floor
	// counts Loops pairs and needs no cheaper hook.
	InFlight func(core.Plan) int
	// PerStageAggregation reports per-stage gradient aggregation (one
	// reduction per stage per batch), which halves the half-precision
	// buffer requirement under DP-PS (Appendix A.2.1).
	PerStageAggregation bool
	// GradsOutsidePeak reports the Megatron-LM implementation's fp32
	// gradient buffer allocated on the fly outside the memory peak
	// (Appendix E footnote 15).
	GradsOutsidePeak bool
	// StashedWeights returns the number of extra resident half-precision
	// weight versions per stage (PipeDream weight stashing); nil means
	// none.
	StashedWeights func(core.Plan) int
	// KeyExtra returns the extra plan parameter the device programs depend
	// on (the hybrid sequence length, the V-schedule in-flight cap); nil
	// means none. It feeds the schedule memo-cache key.
	KeyExtra func(core.Plan) int

	// StepLB returns an admissible lower bound on the simulated batch time
	// of the plan under the given per-operation costs, and whether the
	// bound is exact (bit-identical to the simulated batch time, which lets
	// the search skip the simulation entirely). The generic placement-level
	// floor of internal/analytic and StepFloor apply on top of a non-exact
	// result, so nil is always safe; a hook only tightens pruning. The
	// search's pricing cascade treats a non-nil StepLB as tier 2 — the
	// O(ops) price it pays only when the cheap tier-1 floor fails to prune
	// — so the hook must stay O(ops) or better and a generator whose bound
	// is merely a cheap floor belongs in StepFloor instead. A generator
	// gets an exact tier 2 by setting this to the shared replay hook of
	// stepbound.go, which replays the plan's checked programs from Cached:
	// there is no op sequence to write beside Generate.
	StepLB func(p core.Plan, c StepCosts) (lb float64, exact bool)
	// StepFloor returns a cheap (O(1)-ish, no replay) admissible lower
	// bound on the simulated batch time, consulted by the search's tier-1
	// pricing pass for every enumerated candidate alongside the generic
	// placement floor. It must never exceed the simulated batch time (the
	// same admissibility contract as StepLB, without the exactness
	// channel); nil means the generic floor alone prices tier 1.
	StepFloor func(p core.Plan, c StepCosts) float64
	// StepLBCached is StepLB with a cache shared by the candidates of one
	// search group, preferred over StepLB when set. It must return exactly
	// what StepLB returns and accept a nil rc. No generator registers it:
	// the replay reads programs Cached already memoizes, so candidates
	// have nothing to share. The field stays for the benchmark harness
	// under bfppbench/, which reads it.
	StepLBCached func(p core.Plan, c StepCosts, rc *ReplayCache) (lb float64, exact bool)
	// SequenceOptions lists the Plan.Sequence values the search enumerates
	// per grid point (the hybrid sequence lengths of Section 4.2, the
	// V-schedule in-flight caps), given the candidate plan with Sequence
	// zero. nil means the method ignores Sequence and only zero is
	// enumerated.
	SequenceOptions func(core.Plan) []int
}

// Generator builds the device programs of one schedule method. Generate
// may assume the structural fields Generate's shared prologue checks
// (positive sizes, NumMicro >= PP for pipelined methods) but must validate
// its own method-specific constraints, since plans reach it both from the
// search (pre-validated) and hand-built from commands and tests.
type Generator interface {
	// Method returns the core.Method this generator implements.
	Method() core.Method
	// Traits returns the generator's static metadata.
	Traits() Traits
	// Generate builds the per-device programs for the plan.
	Generate(p core.Plan) (*Schedule, error)
}

// registered is one published generator with the traits it declared at
// registration, the conservative InFlight default already applied.
type registered struct {
	gen    Generator
	traits Traits
}

var reg struct {
	sync.RWMutex
	byMethod map[core.Method]registered
	order    []Generator
}

// Register publishes a schedule generator. It is called at init time (this
// package registers the paper's seven methods and the two extension
// schedules) and panics on a duplicate method. The generator's Traits are
// read once, here.
func Register(g Generator) {
	m := g.Method()
	tr := g.Traits()
	if tr.InFlight == nil {
		tr.InFlight = conservativeInFlight
	}
	reg.Lock()
	defer reg.Unlock()
	if reg.byMethod == nil {
		reg.byMethod = map[core.Method]registered{}
	}
	if _, ok := reg.byMethod[m]; ok {
		panic(fmt.Sprintf("schedule: generator for method %v registered twice", m))
	}
	reg.byMethod[m] = registered{gen: g, traits: tr}
	reg.order = append(reg.order, g)
}

// Lookup returns the generator registered for a method.
func Lookup(m core.Method) (Generator, bool) {
	reg.RLock()
	defer reg.RUnlock()
	e, ok := reg.byMethod[m]
	return e.gen, ok
}

// Generators returns every registered generator in registration order
// (which the search layer uses as its family display order).
func Generators() []Generator {
	reg.RLock()
	defer reg.RUnlock()
	return append([]Generator(nil), reg.order...)
}

// conservativeInFlight assumes every (stage, micro-batch) pair stays
// resident — the safe upper bound for the memory estimate.
func conservativeInFlight(p core.Plan) int { return p.NumMicro * p.Loops }

// TraitsOf returns the registered traits of a method. Unregistered
// methods — and registered generators that left the hook nil — get the
// conservative InFlight default, so the memory estimator never calls a
// nil hook. Every call returns the value stored at registration, so it
// allocates nothing; callers share its Shardings slice and must not
// modify it.
func TraitsOf(m core.Method) Traits {
	reg.RLock()
	defer reg.RUnlock()
	if e, ok := reg.byMethod[m]; ok {
		return e.traits
	}
	return Traits{InFlight: conservativeInFlight}
}

func init() {
	// The two extension methods carry their core metadata here rather than
	// in core's static table: registering a new schedule end-to-end takes
	// exactly one core.RegisterMethod and one schedule.Register call.
	core.RegisterMethod(core.WeightStash1F1B, core.MethodInfo{
		Name: "WS-1F1B", Aliases: []string{"ws-1f1b", "ws1f1b", "weight-stash", "pipedream"},
		Pipelined: true,
		CheckSharding: func(p core.Plan) error {
			if p.Sharding != core.DP0 {
				return fmt.Errorf("plan: weight-stashing 1F1B supports only DP0 (stashed versions pin unsharded weights)")
			}
			return nil
		},
	})
	core.RegisterMethod(core.VSchedule, core.MethodInfo{
		Name: "V-schedule", Aliases: []string{"v-schedule", "vschedule", "vs"},
		Looped: true, Pipelined: true,
		Placement: core.PlacementVee,
		CheckPlan: func(p core.Plan) error {
			// Zero means the default cap (N_PP); an explicit cap below
			// Loops cannot carry one micro-batch through a device's local
			// stages, so reject it instead of silently raising it.
			if p.Sequence < 0 || (p.Sequence > 0 && p.Sequence < p.Loops) {
				return fmt.Errorf("plan: v-schedule in-flight cap %d must be 0 (default) or >= Loops (%d)", p.Sequence, p.Loops)
			}
			return nil
		},
		CheckSharding: func(p core.Plan) error {
			if p.Sharding == core.DPFS {
				return fmt.Errorf("plan: v-schedule with DP-FS is excluded (per-device stage interleaving repeats restores)")
			}
			return nil
		},
	})

	// Paper methods, in the family display order of Figure 7; the two
	// extension schedules follow.
	Register(breadthFirstGen{})
	Register(depthFirstGen{})
	Register(gpipeGen{})
	Register(oneFOneBGen{})
	Register(noPipelineBFGen{})
	Register(noPipelineDFGen{})
	Register(hybridGen{})
	Register(weightStashGen{})
	Register(vScheduleGen{})
}
