// Package search implements the configuration grid search of Appendix E:
// for each method family and global batch size it enumerates the
// distributed configurations (N_PP, N_TP, S_mb, N_mb, N_loop, sharding,
// and the per-method Sequence dial — hybrid sequence lengths, V-schedule
// in-flight caps), prunes infeasible and provably inferior ones, simulates
// the rest and returns the most efficient — reproducing Figure 7 and
// Tables E.1-E.3.
//
// # Concurrency, cancellation and pruning
//
// A sweep's unit of parallel work is the (family, batch) group: no price
// crosses a group boundary, so each group is enumerated, priced and
// settled start to finish on one worker of a bounded pool
// (internal/parallel). Sweep and SweepAll hand their groups to that pool,
// largest candidate count first, and Options.Workers bounds how many
// groups run at once (0 means GOMAXPROCS, 1 forces the serial path).
// Optimize is a one-group sweep, so it runs on one worker.
//
// Every entry point takes a context: workers observe cancellation between
// candidate simulations (an in-flight simulation completes, no new one
// starts), the pool drains promptly and the call returns ctx.Err().
// Passing context.Background() reproduces the uncancellable behavior —
// and the exact results — of the pre-context API. Options.Progress, when
// set, receives pruning-counter snapshots while the search runs, so a
// long sweep is observable (and streamable) without waiting for the
// final table.
//
// By default the search runs branch-and-bound (BaPipe-style) with a
// two-tier pricing cascade. Within a group, tier 1 prices every candidate
// with the cheap analytic floor (analytic.Floor — O(1) arithmetic, no
// schedule replay), and candidates are taken cheapest-floor-first. A
// candidate reaches tier 2 — the O(ops) exact multi-stream schedule replay
// (analytic.LowerBound, which replays the candidate's checked device
// programs with the simulator's own replay, so its price is the simulated
// batch time bit for bit for every generator registering the replay hook)
// — only when its floor fails to prune against the group's incumbent.
// Device programs are generated on first use, by tier 2 or the
// simulation; the precheck generates none.
// Exact tier-2 prices feed the incumbent immediately, so siblings prune
// before any simulation runs, and the exactly-priced candidate's
// simulation is deferred. Once the group's last candidate is resolved the
// worker settles the group: it simulates the deferred candidate the
// incumbent names (the winner) and counts every other deferred candidate
// as a bound skip. Because each group is priced in one fixed order
// against its own incumbent, every pruning counter is the same at any
// worker count.
//
// Pruning never changes results: a candidate is skipped only when the
// admissible bound proves it cannot be the winner under the same strict
// ">" / lowest-index tie rule the serial loop applies, so the winner —
// and the formatted Table output, including the Configs column, which
// counts enumerated candidates — is byte-identical to the unpruned path
// at any worker count. Errors are preserved too: every candidate is
// prechecked (engine.Precheck, the simulation's pre-generation
// validations, which need no programs) before pruning may skip it, so
// Optimize, Sweep and SweepAll surface the same per-group error (the
// group's lowest-index candidate error) with and without pruning. That
// holds as long as every plan Plan.Validate accepts generates cleanly:
// the precheck cannot see a generator failure, so a pruned candidate
// would hide one the unpruned path reports. FuzzValidatedPlanGenerates
// (internal/schedule) and TestEnumeratedPlansGenerate check that rule.
// Options.NoPrune disables the bounds and simulates every candidate: the
// reference the equivalence tests and the perf harness compare against.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"bfpp/internal/analytic"
	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/memsim"
	"bfpp/internal/model"
	"bfpp/internal/parallel"
	"bfpp/internal/schedule"
)

// Family is a method family as compared in Figure 7, an index into the
// descriptor table built from the schedule registry. A family may span
// several concrete schedules/implementations (the "non-looped" family
// covers both our GPipe and Megatron-LM's 1F1B, as in the paper).
type Family int

const (
	// FamilyBreadthFirst is the paper's method (our implementation:
	// overlapped, DP0 or DP-FS).
	FamilyBreadthFirst Family = iota
	// FamilyDepthFirst is Megatron-LM's interleaved schedule
	// (non-overlapped, DP0).
	FamilyDepthFirst
	// FamilyNonLooped covers GPipe (ours) and 1F1B (Megatron-LM).
	FamilyNonLooped
	// FamilyNoPipeline is sharded data parallelism with tensor parallelism
	// (the "2d parallelism" baseline).
	FamilyNoPipeline
)

// Variant is one concrete (method, overlap, sharding) combination within a
// family, derived from the method's registered schedule traits.
type Variant struct {
	// Method is the schedule method.
	Method core.Method
	// Overlap reports whether the implementation overlaps DP/PP
	// communication; it becomes Plan.OverlapDP/OverlapPP.
	Overlap bool
	// Shardings lists the sharding modes to enumerate.
	Shardings []core.Sharding
}

// FamilyInfo is one row of the family descriptor table: a display name,
// a short selection key and the member variants in enumeration order.
type FamilyInfo struct {
	// Key is the short selection key ("bf", "nl", ...) used by the
	// -families command flags.
	Key string
	// Name is the display name (the Figure 7 legend).
	Name string
	// Paper marks the families of the paper's Figure 7 comparison.
	Paper bool
	// Variants are the member methods with their traits.
	Variants []Variant
}

// familyCache memoizes the descriptor table built from the schedule
// registry, keyed on the generator count so a generator registered after
// the first lookup (e.g. from a test's init) still appears instead of
// being frozen out by a one-shot snapshot. Families only ever grow, and
// existing indexes are stable because the build order is registration
// order.
var familyCache struct {
	sync.Mutex
	nGens int
	table []FamilyInfo
}

// familyTable builds (or rebuilds) the descriptor table: generators
// sharing a family key become variants of one family, in registration
// order (which fixes the Family index values — the paper's four families
// register first, matching the constants above).
func familyTable() []FamilyInfo {
	gens := schedule.Generators()
	familyCache.Lock()
	defer familyCache.Unlock()
	if familyCache.table != nil && familyCache.nGens == len(gens) {
		return familyCache.table
	}
	var table []FamilyInfo
	index := map[string]int{}
	for _, g := range gens {
		tr := g.Traits()
		if tr.Family == "" {
			continue
		}
		i, ok := index[tr.Family]
		if !ok {
			i = len(table)
			index[tr.Family] = i
			table = append(table, FamilyInfo{Key: tr.Family, Name: tr.FamilyName, Paper: tr.Paper})
		}
		table[i].Variants = append(table[i].Variants, Variant{
			Method:    g.Method(),
			Overlap:   tr.Overlap,
			Shardings: tr.Shardings,
		})
	}
	//lint:allow globalstate mutex-guarded memo of the registry-derived family table; rebuilt deterministically from the generator list
	familyCache.nGens = len(gens)
	//lint:allow globalstate mutex-guarded memo of the registry-derived family table; rebuilt deterministically from the generator list
	familyCache.table = table
	return table
}

// Families returns the paper's Figure 7 families in display order (the
// default search scope, preserving the pre-registry behavior).
func Families() []Family {
	var out []Family
	for i, fi := range familyTable() {
		if fi.Paper {
			out = append(out, Family(i))
		}
	}
	return out
}

// AllFamilies returns every registered family — the paper's four plus the
// extension schedules — in registration order.
func AllFamilies() []Family {
	out := make([]Family, len(familyTable()))
	for i := range out {
		out[i] = Family(i)
	}
	return out
}

// FamilyByKey resolves a family from its short selection key.
func FamilyByKey(key string) (Family, bool) {
	for i, fi := range familyTable() {
		if fi.Key == key {
			return Family(i), true
		}
	}
	return 0, false
}

// FamilyOf returns the family containing the given method.
func FamilyOf(m core.Method) (Family, bool) {
	for i, fi := range familyTable() {
		for _, v := range fi.Variants {
			if v.Method == m {
				return Family(i), true
			}
		}
	}
	return 0, false
}

// Info returns the family's descriptor.
func (f Family) Info() FamilyInfo {
	table := familyTable()
	if int(f) < 0 || int(f) >= len(table) {
		return FamilyInfo{Name: fmt.Sprintf("Family(%d)", int(f))}
	}
	return table[f]
}

// String names the family as in Figure 7's legend.
func (f Family) String() string { return f.Info().Name }

// ErrInfeasible marks a search that found no feasible configuration: every
// enumerated candidate failed a constraint, not an execution fault.
// Callers distinguishing "nothing fits" (skip the cell, as the CLI table
// does) from real failures test with errors.Is.
var ErrInfeasible = errors.New("no feasible configuration")

// GroupKey identifies one (family, batch) group of a sweep: the family's
// short registry key and the global batch size. It is the granularity of
// sweep checkpointing — a group's winner is deterministic and independent
// of every other group, so a journaled GroupKey -> Best record can replace
// the group's entire enumeration and pricing on resume without changing a
// byte of the final table.
type GroupKey struct {
	// Family is the family's short selection key ("bf", "ws", ...).
	Family string `json:"family"`
	// Batch is the global batch size.
	Batch int `json:"batch"`
}

// Best is the winning configuration of one (family, batch) search.
type Best struct {
	engine.Result
	// Configs is the number of candidate configurations considered,
	// mirroring the "Configs" column of Tables E.1-E.3. Pruned candidates
	// count: they were enumerated and proven inferior, not skipped.
	Configs int
}

// FamilyStats accumulates the branch-and-bound counters of one method
// family. All fields are atomic so one record may be shared across the
// workers of a sweep and across concurrent sweeps. Every counter of a
// completed search is deterministic: each group is priced in one fixed
// order against its own incumbent, so the counts are the same at any
// worker count (and BoundSkipped + Simulated equals Enumerated).
type FamilyStats struct {
	// Enumerated counts candidate plans entering the work list.
	Enumerated atomic.Int64
	// Dominated is always zero. The search has no dominance pre-pass;
	// the field stays for the benchmark harness under bfppbench/, which
	// reads it.
	Dominated atomic.Int64
	// BoundSkipped counts candidates skipped because their analytic
	// throughput upper bound could not beat the incumbent.
	BoundSkipped atomic.Int64
	// Simulated counts candidates that reached the simulation,
	// engine.SimulateOpts (including candidates whose precheck reported an
	// error: the unpruned path would have simulated them).
	Simulated atomic.Int64
	// FlooredOut counts the BoundSkipped candidates whose price at skip
	// time was still the tier-1 floor — pruned without ever paying the
	// O(ops) exact replay. BoundSkipped - FlooredOut candidates were
	// replay-priced first and skipped on the exact bound.
	FlooredOut atomic.Int64
	// ReplayPriced counts tier-2 exact replays: the O(ops) prices actually
	// paid. The cascade's win is ReplayPriced staying far below
	// Enumerated.
	ReplayPriced atomic.Int64
	// WarmStartHits is always zero. Group incumbents are not seeded from
	// neighboring grid points; the field stays for the benchmark harness
	// under bfppbench/, which reads it.
	WarmStartHits atomic.Int64
}

// PruneRate returns the fraction of enumerated candidates that were never
// simulated.
func (s *FamilyStats) PruneRate() float64 {
	e := s.Enumerated.Load()
	if e == 0 {
		return 0
	}
	return float64(s.BoundSkipped.Load()) / float64(e)
}

// String summarizes the counters.
func (s *FamilyStats) String() string {
	return fmt.Sprintf("enumerated %d, bounded out %d (%d on floor alone), simulated %d, replay-priced %d (%.1f%% pruned)",
		s.Enumerated.Load(), s.BoundSkipped.Load(),
		s.FlooredOut.Load(), s.Simulated.Load(), s.ReplayPriced.Load(), 100*s.PruneRate())
}

// Stats accumulates the branch-and-bound counters of one or more searches:
// the embedded totals plus a per-family breakdown keyed by the family's
// short selection key ("bf", "ws", ...), which is how the pruning power of
// the per-generator bounds is compared across schedule families.
type Stats struct {
	FamilyStats

	mu        sync.Mutex
	perFamily map[string]*FamilyStats
}

// Family returns the family's counter record, creating it on first use.
func (s *Stats) Family(key string) *FamilyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.perFamily == nil {
		s.perFamily = map[string]*FamilyStats{}
	}
	fs, ok := s.perFamily[key]
	if !ok {
		fs = &FamilyStats{}
		s.perFamily[key] = fs
	}
	return fs
}

// FamilyKeys returns the keys of the families counted so far, sorted.
func (s *Stats) FamilyKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.perFamily))
	for k := range s.perFamily {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FamilyProgress is one family's counter snapshot.
type FamilyProgress struct {
	// Key is the family's short selection key ("bf", "ws", ...).
	Key string `json:"key"`
	// Enumerated, BoundedOut and Simulated snapshot the FamilyStats
	// counters Enumerated, BoundSkipped and Simulated.
	Enumerated int64 `json:"enumerated"`
	BoundedOut int64 `json:"bounded_out"`
	Simulated  int64 `json:"simulated"`
	// FlooredOut and ReplayPriced snapshot the pricing-cascade counters of
	// the same names.
	FlooredOut   int64 `json:"floored_out"`
	ReplayPriced int64 `json:"replay_priced"`
}

// ProgressSnapshot is a point-in-time view of a search's pruning counters:
// of Enumerated candidates, BoundedOut were skipped against the incumbent
// and Simulated reached the simulator. Done/Enumerated is the search's
// completion fraction (every candidate ends in exactly one of the two
// buckets).
type ProgressSnapshot struct {
	Enumerated int64 `json:"enumerated"`
	BoundedOut int64 `json:"bounded_out"`
	Simulated  int64 `json:"simulated"`
	// FlooredOut and ReplayPriced expose the pricing cascade: how many
	// skips the cheap tier-1 floor won outright, and how many O(ops)
	// exact replays were paid.
	FlooredOut   int64 `json:"floored_out"`
	ReplayPriced int64 `json:"replay_priced"`
	// Families is the per-family breakdown, sorted by key.
	Families []FamilyProgress `json:"families,omitempty"`
}

// Done returns the number of candidates resolved so far.
func (p ProgressSnapshot) Done() int64 { return p.BoundedOut + p.Simulated }

// Snapshot captures the counters atomically enough for progress display:
// each field is an atomic load, so a snapshot taken while workers run is a
// consistent-per-counter view of a moment in the search.
func (s *Stats) Snapshot() ProgressSnapshot {
	snap := ProgressSnapshot{
		Enumerated:   s.Enumerated.Load(),
		BoundedOut:   s.BoundSkipped.Load(),
		Simulated:    s.Simulated.Load(),
		FlooredOut:   s.FlooredOut.Load(),
		ReplayPriced: s.ReplayPriced.Load(),
	}
	for _, key := range s.FamilyKeys() {
		fs := s.Family(key)
		snap.Families = append(snap.Families, FamilyProgress{
			Key:          key,
			Enumerated:   fs.Enumerated.Load(),
			BoundedOut:   fs.BoundSkipped.Load(),
			Simulated:    fs.Simulated.Load(),
			FlooredOut:   fs.FlooredOut.Load(),
			ReplayPriced: fs.ReplayPriced.Load(),
		})
	}
	return snap
}

// Options tunes the search.
type Options struct {
	// Params overrides the engine calibration constants.
	Params *engine.Params
	// MaxMicroBatch caps S_mb in the enumeration (default 16).
	MaxMicroBatch int
	// Workers bounds the pool of goroutines a sweep hands its (family,
	// batch) groups to, each group running start to finish on one worker:
	// 0 resolves to GOMAXPROCS, 1 forces the serial path. A sweep of one
	// group (Optimize) uses one worker. Any worker count produces
	// byte-identical results and pruning counters.
	Workers int
	// NoPrune disables the analytic branch-and-bound (the pricing
	// cascade and incumbent skipping) and simulates every candidate.
	// Results are identical either way; the equivalence tests use it as
	// their reference and the perf harness as the pruning speedup
	// denominator.
	NoPrune bool
	// Stats, when non-nil, accumulates the pruning counters of this
	// search — totals plus a per-family breakdown (Stats.Family).
	Stats *Stats
	// Progress, when non-nil, receives counter snapshots while the search
	// runs: after enumeration, periodically as candidates resolve (at
	// least every progressStride resolutions) and once in the terminal
	// state. Invocations are serialized by the search, so the callback
	// itself needs no locking; it runs on worker goroutines and must
	// return quickly (throttle expensive sinks on the caller side).
	// Progress does not require Stats: a private counter set is used when
	// Stats is nil.
	Progress func(ProgressSnapshot)
	// Checkpoint, when non-nil, receives each (family, batch) group's
	// winner when the group settles — while the rest of the sweep is
	// still running. It is the sweep-journaling hook: a caller that
	// durably records every (GroupKey, Best) it receives can, after a
	// crash, restart the sweep with those records as Resume and re-price
	// only the unfinished groups. Invocations are serialized by the
	// search (no locking needed in the callback); they run on worker
	// goroutines, so expensive sinks should buffer. Groups that error,
	// find no feasible configuration, or are cut off by cancellation are
	// not checkpointed. The callback never fires for groups satisfied
	// from Resume.
	Checkpoint func(GroupKey, Best)
	// Resume maps already-resolved groups to their journaled winners.
	// A group found here is not enumerated or priced at all — its Best
	// is returned as recorded — so a resumed sweep pays only for the
	// groups the original run had not finished. Because each group's
	// winner is deterministic and independent of every other group (no
	// price crosses a group boundary), the resumed table is
	// byte-identical to an uninterrupted run's.
	Resume map[GroupKey]Best
}

// progressStride is how many candidate resolutions may pass between two
// Progress snapshots (milestones — enumeration and the terminal state —
// always emit).
const progressStride = 16

// Optimize searches one family at one global batch size and returns the
// most efficient feasible configuration. It is Sweep over the one batch,
// a single group, so it runs on one worker whatever Options.Workers says;
// searching several batches or families at once belongs in one Sweep or
// SweepAll call. The winner is the lowest-indexed plan (in Enumerate
// order) of maximal throughput, matching the serial path tie-for-tie.
// Cancelling ctx aborts the search between candidate simulations and
// returns ctx.Err().
func Optimize(ctx context.Context, c hw.Cluster, m model.Transformer, f Family, batch int, opt Options) (Best, error) {
	bests, err := Sweep(ctx, c, m, f, []int{batch}, opt)
	switch {
	case errors.Is(err, ErrInfeasible):
		return Best{}, fmt.Errorf("search: %w for %v at batch %d", ErrInfeasible, f, batch)
	case err != nil:
		return Best{}, err
	}
	return bests[0], nil
}

// pickBest selects the winner deterministically: the first result (in
// enumeration order) whose throughput no later result strictly exceeds.
// This is exactly what the serial loop's `>` comparison kept, so ties
// resolve identically regardless of worker count.
func pickBest(results []engine.Result) Best {
	best := Best{Result: results[0], Configs: len(results)}
	for _, r := range results[1:] {
		if r.Throughput > best.Throughput {
			best.Result = r
		}
	}
	return best
}

// job carries one candidate plan through its group's pricing.
type job struct {
	plan     core.Plan
	ub       float64 // analytic throughput upper bound (FlopPerGPU / lower bound)
	flop     float64 // BatchFlopPerGPU, shared by the cascade's two pricings
	exact    bool    // the bound equals the simulated time bit for bit
	replay   bool    // the method has a tier-2 exact replay (StepLB hook)
	failed   bool    // precheck reported the error a simulation would
	deferred bool    // exactly priced; simulated when its group settles, if it won
}

// incumbent is one group's best-simulated-so-far record, owned by the
// worker pricing the group. Its rule mirrors pickBest: a candidate is
// covered (provably not the winner) when its throughput upper bound is
// strictly below the incumbent, or ties it while the incumbent has the
// lower enumeration index. The minimal-index maximal-throughput candidate
// is never covered, so the reduced winner is identical to the unpruned
// one.
type incumbent struct {
	ok  bool
	tp  float64
	idx int
}

func (inc *incumbent) covers(ub float64, idx int) bool {
	return inc.ok && (ub < inc.tp || (ub == inc.tp && inc.idx < idx))
}

func (inc *incumbent) update(tp float64, idx int) {
	if !inc.ok || tp > inc.tp || (tp == inc.tp && idx < inc.idx) {
		inc.ok, inc.tp, inc.idx = true, tp, idx
	}
}

// simOut is one candidate's result slot.
type simOut struct {
	res engine.Result
	ran bool
	err error
}

// reduce picks one group's winner from its result slots: the lowest-index
// candidate error if any candidate failed, else pickBest over the
// simulated candidates (nil when none ran). Skipped candidates provably
// cannot win, so this is the unpruned selection rule.
func reduce(seg []simOut) (*Best, error) {
	var ran []engine.Result
	for i := range seg {
		if seg[i].err != nil {
			return nil, seg[i].err
		}
		if seg[i].ran {
			ran = append(ran, seg[i].res)
		}
	}
	if len(ran) == 0 {
		return nil, nil
	}
	b := pickBest(ran)
	b.Configs = len(seg)
	return &b, nil
}

// upperBound is a candidate's throughput upper bound from a lower bound
// on its batch time.
func upperBound(flop, lb float64) float64 {
	if lb > 0 {
		return flop / lb
	}
	return math.Inf(1)
}

// pricer holds what every group of one evalGroups call shares: the
// scenario, the options and the counters. price touches no other group's
// state, so any number of workers may run it at once.
type pricer struct {
	ctx      context.Context
	c        hw.Cluster
	m        model.Transformer
	opt      Options
	par      engine.Params
	progress func(force bool)
}

func (p *pricer) countSim(fs *FamilyStats) {
	p.opt.Stats.Simulated.Add(1)
	fs.Simulated.Add(1)
	p.progress(false)
}

func (p *pricer) countSkip(fs *FamilyStats, j *job) {
	p.opt.Stats.BoundSkipped.Add(1)
	fs.BoundSkipped.Add(1)
	if !j.exact {
		// Skipped on the tier-1 floor alone: the candidate never paid an
		// exact replay.
		p.opt.Stats.FlooredOut.Add(1)
		fs.FlooredOut.Add(1)
	}
	p.progress(false)
}

// price searches one group on the calling worker. It returns one result
// slot per candidate, in enumeration order, and whether the group ran to
// completion: ctx is checked before each candidate, and a cut-off group's
// slots hold only what was fully simulated.
//
// With pruning active it first prechecks every candidate (so a candidate
// whose simulation would error reports it even when the bounds would
// skip it; the precheck generates no programs) and prices it with the
// tier-1 floor. It then takes the candidates cheapest-floor-first, stable
// on enumeration order: each one the incumbent covers is skipped, and the
// tier-2 exact replay is paid only for candidates the floor fails to
// settle. An exactly-priced candidate's simulation is deferred, and the
// settle at the end simulates the one the incumbent names. The winner is
// provably the one the unpruned path reports, and so is the lowest-index
// error while every validated plan generates cleanly (see the package
// doc).
func (p *pricer) price(plans []core.Plan, fs *FamilyStats) ([]simOut, bool) {
	jobs := make([]job, len(plans))
	outs := make([]simOut, len(plans))
	order := make([]int, len(plans))
	for i, pl := range plans {
		jobs[i].plan = pl
		order[i] = i
	}
	prune := !p.opt.NoPrune
	eopt := engine.Options{Params: p.opt.Params}
	if prune {
		lbs := make([]float64, len(jobs))
		for i := range jobs {
			if p.ctx.Err() != nil {
				return outs, false
			}
			j := &jobs[i]
			if err := engine.Precheck(p.c, p.m, j.plan, eopt); err != nil {
				outs[i].err = fmt.Errorf("search: %v: %w", j.plan, err)
				j.failed = true
				continue
			}
			j.flop = p.m.BatchFlopPerGPU(j.plan.MicroBatch, j.plan.NumMicro, j.plan.PP, j.plan.TP)
			// Tier 1: the cheap floor. Whether an exact tier-2 price exists
			// is a trait of the method, recorded for the pricing loop.
			tr := schedule.TraitsOf(j.plan.Method)
			j.replay = tr.StepLB != nil || tr.StepLBCached != nil
			lbs[i] = analytic.Floor(p.c, p.m, j.plan, &p.par)
			j.ub = upperBound(j.flop, lbs[i])
		}
		// Cheapest (fastest-looking) bound first: the likely winners are
		// priced early and the incumbent tightens before the long tail.
		sort.SliceStable(order, func(a, b int) bool { return lbs[order[a]] < lbs[order[b]] })
	}

	var inc incumbent
	simulate := func(i int) {
		r, err := engine.SimulateOpts(p.c, p.m, jobs[i].plan, eopt)
		p.countSim(fs) // reached the simulator, error or not
		if err != nil {
			// Enumeration bugs should surface loudly; feasibility issues
			// are filtered beforehand. The precheck has already reported
			// every error but a generator failure, which the rule that
			// validated plans generate cleanly rules out (package doc).
			outs[i].err = fmt.Errorf("search: %v: %w", jobs[i].plan, err)
			return
		}
		outs[i] = simOut{res: r, ran: true}
		inc.update(r.Throughput, i)
	}
	for _, i := range order {
		if p.ctx.Err() != nil {
			return outs, false
		}
		j := &jobs[i]
		if prune && j.replay && !j.failed && !inc.covers(j.ub, i) {
			// Tier 2: the floor failed to settle this candidate against the
			// incumbent; pay the exact O(ops) replay once. Both tiers are
			// admissible, so tightening the bound here can only turn "maybe"
			// into "provably not the winner" — never the other way.
			lb, exact := analytic.LowerBound(p.c, p.m, j.plan, &p.par)
			p.opt.Stats.ReplayPriced.Add(1)
			fs.ReplayPriced.Add(1)
			j.ub = upperBound(j.flop, lb)
			if j.exact = exact; exact {
				// The replay is the simulated time bit for bit, so the ub is
				// this candidate's true throughput: publish it so siblings
				// prune against it immediately.
				inc.update(j.ub, i)
			}
		}
		switch {
		case j.failed:
			// The precheck already recorded the exact error the simulation
			// would produce; count it as simulated, which is what the
			// unpruned path would have done.
			p.countSim(fs)
		case prune && inc.covers(j.ub, i):
			p.countSkip(fs, j)
		case prune && j.exact:
			// Simulating now would learn nothing the exact price has not;
			// the settle below simulates the candidate if it wins.
			j.deferred = true
		default:
			simulate(i)
		}
	}
	if p.ctx.Err() != nil {
		return outs, false
	}
	// Settle. Every deferred candidate was published to the incumbent at
	// its exact price, which is its simulated throughput bit for bit, so
	// the incumbent covers all of them but the one it names: that one
	// simulates (it is the winner), the rest are bound skips.
	for i := range jobs {
		if j := &jobs[i]; j.deferred {
			if inc.covers(j.ub, i) {
				p.countSkip(fs, j)
			} else {
				simulate(i)
			}
		}
	}
	return outs, true
}

// evalGroups evaluates the candidate groups (one per (family, batch), with
// keys carrying each group's family key for the per-family statistics)
// and reduces each to its winner. It returns one Best per group (nil when
// the group is empty or failed) and each group's lowest-index candidate
// error; the final error is non-nil only when ctx was cancelled. Even
// then the per-group results are returned: each reflects only
// fully-simulated candidates, so a group's Best is its incumbent-so-far —
// a valid (if possibly non-optimal) configuration that callers surfacing
// graceful degradation may report alongside the error.
//
// The groups are the pool's work items: each is prechecked, priced,
// settled and checkpointed by the worker that took it (price), so no
// state is shared between workers but the counters and the checkpoint
// sink. Groups are handed out largest candidate count first, so a heavy
// group does not start last and leave the other workers idle while it
// drains.
func evalGroups(ctx context.Context, c hw.Cluster, m model.Transformer, groups [][]core.Plan, keys []string, opt Options) ([]*Best, []error, error) {
	if opt.Stats == nil {
		// Progress is built on the counters; a private set stands in when
		// the caller did not ask to keep them.
		opt.Stats = &Stats{}
	}
	// Progress invocations are serialized so the callback needs no locking
	// of its own. Snapshots are throttled to one per progressStride
	// candidate resolutions (the milestone emits force through), keeping
	// the per-candidate cost on the worker hot path at an atomic add
	// instead of a mutex'd snapshot build.
	var progressMu sync.Mutex
	var progressTick atomic.Int64
	progress := func(force bool) {
		if opt.Progress == nil {
			return
		}
		if !force && progressTick.Add(1)%progressStride != 0 {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		opt.Progress(opt.Stats.Snapshot())
	}
	famStats := make([]*FamilyStats, len(groups))
	order := make([]int, len(groups))
	for gi, g := range groups {
		famStats[gi] = opt.Stats.Family(keys[gi])
		famStats[gi].Enumerated.Add(int64(len(g)))
		opt.Stats.Enumerated.Add(int64(len(g)))
		order[gi] = gi
	}
	progress(true) // enumeration counted: the 0%-done snapshot

	sort.SliceStable(order, func(a, b int) bool { return len(groups[order[a]]) > len(groups[order[b]]) })
	p := &pricer{ctx: ctx, c: c, m: m, opt: opt, par: engine.Defaults(), progress: progress}
	if opt.Params != nil {
		p.par = *opt.Params
	}
	bests := make([]*Best, len(groups))
	errs := make([]error, len(groups))
	var checkpointMu sync.Mutex
	_, ctxErr := parallel.MapCtx(ctx, opt.Workers, order, func(_ int, gi int) (struct{}, error) {
		outs, done := p.price(groups[gi], famStats[gi])
		bests[gi], errs[gi] = reduce(outs)
		// A cut-off or errored group re-runs on resume; a group with
		// nothing simulated has nothing worth journaling.
		if done && opt.Checkpoint != nil && errs[gi] == nil && bests[gi] != nil {
			checkpointMu.Lock()
			defer checkpointMu.Unlock()
			opt.Checkpoint(GroupKey{Family: keys[gi], Batch: groups[gi][0].BatchSize()}, *bests[gi])
		}
		return struct{}{}, nil
	})
	progress(true) // terminal snapshot (100% unless ctx cancelled the run)
	return bests, errs, ctxErr
}

// Sweep runs the family's search across batch sizes, skipping batches with
// no feasible configuration, and returns the Figure 7 series in batch
// order. It is SweepAll over the one family: each batch is one group on
// the worker pool. Results are identical to calling Optimize per batch,
// and a failing batch fails the sweep with the error of the first failing
// batch in the order given. Cancelling ctx aborts the sweep between
// candidate simulations and returns the incumbents-so-far (each batch's
// best fully-simulated candidate) alongside ctx.Err(); callers that
// cannot use a partial table must discard it.
func Sweep(ctx context.Context, c hw.Cluster, m model.Transformer, f Family, batches []int, opt Options) ([]Best, error) {
	out, err := SweepAll(ctx, c, m, []Family{f}, batches, opt)
	if errors.Is(err, ErrInfeasible) {
		return nil, fmt.Errorf("search: %w for %v at any batch", ErrInfeasible, f)
	}
	return out[f], err
}

// SweepAll runs the sweeps of several families on one worker pool. Every
// (family, batch) pair is one group: the pool enumerates the groups, then
// prices each start to finish on one worker, largest group first, with
// the branch-and-bound incumbent kept per group. Results are identical to
// calling Sweep per family; families with no feasible configuration at
// any batch are omitted from the map, and ErrInfeasible is returned only
// when that leaves the map empty. A candidate error fails the sweep:
// SweepAll returns the error of the first failing group in (family,
// batch) order — the same with and without pruning, at any worker count.
// Cancelling ctx aborts the sweep between candidate simulations and
// returns the incumbents-so-far — each (family, batch) group's best
// fully-simulated candidate, a valid if possibly non-optimal
// configuration — alongside ctx.Err(). The service layer turns that
// partial map into a degraded response on deadline; callers that cannot
// use a partial table must discard it on error.
func SweepAll(ctx context.Context, c hw.Cluster, m model.Transformer, fams []Family, batches []int, opt Options) (map[Family][]Best, error) {
	if opt.MaxMicroBatch <= 0 {
		opt.MaxMicroBatch = 16
	}
	// cells holds one winner per (family, batch), in that order. Resumed
	// groups — journaled winners of a previous, interrupted run — fill
	// theirs up front; the pool fills the rest.
	cells := make([]*Best, len(fams)*len(batches))
	var fresh []int // the cells the pool prices, in group order
	var keys []string
	for fi, f := range fams {
		key := f.Info().Key
		for bi, b := range batches {
			ci := fi*len(batches) + bi
			if rb, ok := opt.Resume[GroupKey{Family: key, Batch: b}]; ok {
				cells[ci] = &rb
				continue
			}
			fresh = append(fresh, ci)
			keys = append(keys, key)
		}
	}
	groups, err := parallel.MapCtx(ctx, opt.Workers, fresh, func(_ int, ci int) ([]core.Plan, error) {
		return Enumerate(ctx, c, m, fams[ci/len(batches)], batches[ci%len(batches)], opt), nil
	})
	if err == nil {
		var bests []*Best
		var errs []error
		bests, errs, err = evalGroups(ctx, c, m, groups, keys, opt)
		for g, ci := range fresh {
			if err == nil && errs[g] != nil {
				return nil, errs[g]
			}
			cells[ci] = bests[g]
		}
	}
	out := map[Family][]Best{}
	for fi, f := range fams {
		for _, b := range cells[fi*len(batches) : (fi+1)*len(batches)] {
			if b != nil {
				out[f] = append(out[f], *b)
			}
		}
	}
	if err != nil {
		return out, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("search: %w for any family at any batch", ErrInfeasible)
	}
	return out, nil
}

// Enumerate lists the feasible plans of a family at a global batch size.
// The pruning mirrors Appendix E: divisibility of the device grid and the
// batch, stage divisibility, memory feasibility (a cheap analytic floor
// first, then the full estimate), and the per-method constraints and
// exclusions that Plan.Validate enforces through the method registry.
// Methods that declare SequenceOptions (the hybrid sequence lengths of
// Section 4.2, the V-schedule in-flight caps) contribute one candidate per
// option at every grid point.
//
// Cancelling ctx stops the enumeration between variants and returns the
// partial list; callers that care (Optimize, Sweep, SweepAll) check
// ctx.Err() afterwards, so a cancelled search never reports a result
// derived from a truncated enumeration.
func Enumerate(ctx context.Context, c hw.Cluster, m model.Transformer, f Family, batch int, opt Options) []core.Plan {
	if opt.MaxMicroBatch <= 0 {
		opt.MaxMicroBatch = 16
	}
	nGPU := c.NumGPUs()
	var plans []core.Plan
	for _, v := range f.Info().Variants {
		if ctx.Err() != nil {
			return plans
		}
		seqOptions := schedule.TraitsOf(v.Method).SequenceOptions
		for tp := 1; tp <= c.GPUsPerNode; tp *= 2 {
			maxPP := 1
			if v.Method.Pipelined() {
				maxPP = m.Layers
			}
			for pp := 1; pp <= maxPP && pp*tp <= nGPU; pp *= 2 {
				if v.Method.Pipelined() && pp == 1 {
					continue // a 1-deep pipeline is the no-pipeline case
				}
				if nGPU%(pp*tp) != 0 {
					continue
				}
				dp := nGPU / (pp * tp)
				for smb := 1; smb <= opt.MaxMicroBatch; smb *= 2 {
					if batch%(dp*smb) != 0 {
						continue
					}
					nmb := batch / (dp * smb)
					if nmb < 1 {
						continue
					}
					if v.Method.Pipelined() && nmb < pp {
						continue
					}
					for _, loops := range loopOptions(m, v.Method, pp) {
						for _, sh := range v.Shardings {
							if sh != core.DP0 && dp == 1 {
								continue
							}
							base := core.Plan{
								Method: v.Method, DP: dp, PP: pp, TP: tp,
								MicroBatch: smb, NumMicro: nmb, Loops: loops,
								Sharding: sh, OverlapDP: v.Overlap, OverlapPP: v.Overlap,
							}
							seqs := []int{0}
							if seqOptions != nil {
								seqs = seqOptions(base)
							}
							for _, seq := range seqs {
								p := base
								p.Sequence = seq
								if p.Validate(m) != nil {
									continue
								}
								if !analytic.MemoryFeasible(m, p, c.GPU.MemBytes) {
									// The floor never exceeds the estimate,
									// so this skips only plans the full
									// check below would reject — without
									// paying it (for the V-schedule, the
									// exact in-flight hook generates
									// programs); the floor itself checks
									// its cheap trait-free terms before
									// consulting the in-flight hook.
									continue
								}
								if !memsim.Feasible(memsim.CachedEstimate(m, p), c.GPU.MemBytes) {
									continue
								}
								plans = append(plans, p)
							}
						}
					}
				}
			}
		}
	}
	return plans
}

// loopOptions returns the N_loop values to try, derived from the method's
// registered traits: 1 for the non-looped pipeline methods, the powers of
// two dividing the stage budget for looped ones, and the per-layer stage
// granularity for the no-pipeline schedules (whose "loops" only set the
// data-parallel aggregation granularity).
func loopOptions(m model.Transformer, method core.Method, pp int) []int {
	switch {
	case !method.Pipelined():
		return []int{m.Layers}
	case !method.Looped():
		return []int{1}
	default:
		var out []int
		for l := 1; pp*l <= m.Layers; l *= 2 {
			if m.Layers%(pp*l) == 0 {
				out = append(out, l)
			}
		}
		return out
	}
}

// Table formats a set of sweep results as a Table E.1-style listing.
// Families appear in registry display order; families absent from the
// results map are skipped.
func Table(title string, results map[Family][]Best) string {
	out := fmt.Sprintf("%s\n%-26s %6s %4s %4s %4s %5s %6s %8s %10s %8s %8s %8s\n",
		title, "Method", "Batch", "PP", "TP", "Smb", "Nmb", "Nloop", "Sharded",
		"Tflop/s", "Mem GiB", "Min GiB", "Configs")
	for _, f := range AllFamilies() {
		bests, ok := results[f]
		if !ok {
			continue
		}
		sorted := append([]Best(nil), bests...)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Plan.BatchSize() < sorted[j].Plan.BatchSize()
		})
		for _, b := range sorted {
			p := b.Plan
			shard := "no"
			if p.Sharding != core.DP0 {
				shard = p.Sharding.String()
			}
			out += fmt.Sprintf("%-26s %6d %4d %4d %4d %5d %6d %8s %10.2f %8.2f %8.2f %8d\n",
				f, p.BatchSize(), p.PP, p.TP, p.MicroBatch, p.NumMicro, p.Loops,
				shard, b.Throughput/1e12, b.Memory.Total()/(1<<30),
				b.Memory.TotalMin()/(1<<30), b.Configs)
		}
	}
	return out
}
