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
// Optimize fans the enumerated plans out across a bounded worker pool
// (internal/parallel); Sweep and SweepAll flatten all batches' (and
// families') candidates into one work list over the same pool, so
// Options.Workers is a true bound on concurrent simulations (0 means
// GOMAXPROCS, 1 forces the serial path).
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
// two-tier pricing cascade. Tier 1 prices every candidate with the cheap
// analytic floor (analytic.Floor — O(1) arithmetic, no schedule replay);
// a deterministic warm-start pass then seeds each (family, batch) group's
// incumbent by exactly pricing up to two seed candidates (the group's
// cheapest-floor replayable plan, and the previous — larger-batch — group
// winner's shape re-matched in this group), so early candidates face a
// real bound instead of pricing against nothing. Jobs are ordered
// cheapest-bound-first, and a candidate reaches tier 2 — the O(ops) exact
// multi-stream schedule replay (analytic.LowerBound, which replays the
// candidate's prechecked device programs bit-identically to the DES
// makespan for every generator registering the replay hook) — only when
// its floor fails to prune against the incumbent. Exact tier-2 prices
// feed the incumbent immediately (the replay IS the simulated time), so
// siblings prune before the simulation even runs.
//
// Pruning never changes results: a candidate is skipped only when the
// admissible bound proves it cannot be the winner under the same strict
// ">" / lowest-index tie rule the serial loop applies, so the winner —
// and the formatted Table output, including the Configs column, which
// counts enumerated candidates — is byte-identical to the unpruned path
// at any worker count. Errors are preserved too: every candidate is
// prechecked (engine.Precheck, the exact pre-simulation validations)
// before pruning may skip it, so Optimize and Sweep surface the same
// lowest-index per-candidate error with and without pruning.
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
// family. All fields are atomic so one record may be shared across
// concurrent sweeps; Enumerated and Dominated are deterministic,
// BoundSkipped and Simulated depend on worker timing (their sum with
// Dominated always equals Enumerated).
type FamilyStats struct {
	// Enumerated counts candidate plans entering the work list.
	Enumerated atomic.Int64
	// Dominated counts candidates removed by the deterministic warm-start
	// pass (an exactly-priced seed sibling provably beats them).
	Dominated atomic.Int64
	// BoundSkipped counts candidates skipped at execution time because
	// their analytic throughput upper bound could not beat the incumbent.
	BoundSkipped atomic.Int64
	// Simulated counts candidates that reached the discrete-event
	// simulator (including candidates whose precheck reported an error:
	// the unpruned path would have simulated them).
	Simulated atomic.Int64
	// FlooredOut counts the BoundSkipped candidates whose price at skip
	// time was still the tier-1 floor — pruned without ever paying the
	// O(ops) exact replay. BoundSkipped - FlooredOut candidates were
	// replay-priced first and skipped on the exact bound.
	FlooredOut atomic.Int64
	// ReplayPriced counts tier-2 exact replays (including the warm-start
	// seed replays): the O(ops) prices actually paid. The cascade's win is
	// ReplayPriced staying far below Enumerated.
	ReplayPriced atomic.Int64
	// WarmStartHits counts groups whose incumbent seed came from a
	// neighboring grid point's winner shape instead of the group's own
	// cheapest-floor candidate.
	WarmStartHits atomic.Int64
}

// PruneRate returns the fraction of enumerated candidates that were never
// simulated.
func (s *FamilyStats) PruneRate() float64 {
	e := s.Enumerated.Load()
	if e == 0 {
		return 0
	}
	return float64(s.Dominated.Load()+s.BoundSkipped.Load()) / float64(e)
}

// String summarizes the counters.
func (s *FamilyStats) String() string {
	return fmt.Sprintf("enumerated %d, dominated %d, bounded out %d (%d on floor alone), simulated %d, replay-priced %d (%.1f%% pruned)",
		s.Enumerated.Load(), s.Dominated.Load(), s.BoundSkipped.Load(),
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
	// Enumerated, Dominated, BoundedOut and Simulated snapshot the
	// FamilyStats counters of the same names.
	Enumerated int64 `json:"enumerated"`
	Dominated  int64 `json:"dominated"`
	BoundedOut int64 `json:"bounded_out"`
	Simulated  int64 `json:"simulated"`
	// FlooredOut, ReplayPriced and WarmStartHits snapshot the pricing-
	// cascade counters of the same names.
	FlooredOut    int64 `json:"floored_out"`
	ReplayPriced  int64 `json:"replay_priced"`
	WarmStartHits int64 `json:"warm_start_hits"`
}

// ProgressSnapshot is a point-in-time view of a search's pruning counters:
// of Enumerated candidates, Dominated were removed by the warm-start
// pass, BoundedOut were skipped against the incumbent, and Simulated
// reached the simulator. Done/Enumerated is the search's completion
// fraction (every candidate ends in exactly one of the three buckets).
type ProgressSnapshot struct {
	Enumerated int64 `json:"enumerated"`
	Dominated  int64 `json:"dominated"`
	BoundedOut int64 `json:"bounded_out"`
	Simulated  int64 `json:"simulated"`
	// FlooredOut, ReplayPriced and WarmStartHits expose the pricing
	// cascade: how many skips the cheap tier-1 floor won outright, how
	// many O(ops) exact replays were paid, and how many group incumbents
	// were seeded from a neighboring grid point.
	FlooredOut    int64 `json:"floored_out"`
	ReplayPriced  int64 `json:"replay_priced"`
	WarmStartHits int64 `json:"warm_start_hits"`
	// Families is the per-family breakdown, sorted by key.
	Families []FamilyProgress `json:"families,omitempty"`
}

// Done returns the number of candidates resolved so far.
func (p ProgressSnapshot) Done() int64 { return p.Dominated + p.BoundedOut + p.Simulated }

// Snapshot captures the counters atomically enough for progress display:
// each field is an atomic load, so a snapshot taken while workers run is a
// consistent-per-counter view of a moment in the search.
func (s *Stats) Snapshot() ProgressSnapshot {
	snap := ProgressSnapshot{
		Enumerated:    s.Enumerated.Load(),
		Dominated:     s.Dominated.Load(),
		BoundedOut:    s.BoundSkipped.Load(),
		Simulated:     s.Simulated.Load(),
		FlooredOut:    s.FlooredOut.Load(),
		ReplayPriced:  s.ReplayPriced.Load(),
		WarmStartHits: s.WarmStartHits.Load(),
	}
	for _, key := range s.FamilyKeys() {
		fs := s.Family(key)
		snap.Families = append(snap.Families, FamilyProgress{
			Key:           key,
			Enumerated:    fs.Enumerated.Load(),
			Dominated:     fs.Dominated.Load(),
			BoundedOut:    fs.BoundSkipped.Load(),
			Simulated:     fs.Simulated.Load(),
			FlooredOut:    fs.FlooredOut.Load(),
			ReplayPriced:  fs.ReplayPriced.Load(),
			WarmStartHits: fs.WarmStartHits.Load(),
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
	// Workers bounds the pool of goroutines simulating candidate plans
	// (one flat pool even across a Sweep's batches): 0 resolves to
	// GOMAXPROCS, 1 forces the serial path. Any worker count produces
	// byte-identical results.
	Workers int
	// NoPrune disables the analytic branch-and-bound (the pricing
	// cascade, warm-started incumbents, dominance marking, incumbent
	// skipping) and simulates every candidate. Results are identical
	// either way; the equivalence tests use it as their reference and the
	// perf harness as the pruning speedup denominator.
	NoPrune bool
	// Stats, when non-nil, accumulates the pruning counters of this
	// search — totals plus a per-family breakdown (Stats.Family).
	Stats *Stats
	// Progress, when non-nil, receives counter snapshots while the search
	// runs: after enumeration, after the warm-start pass, periodically
	// as candidates resolve (at least every progressStride resolutions)
	// and once in the terminal state. Invocations are serialized by the
	// search, so the callback itself needs no locking; it runs on worker
	// goroutines and must return quickly (throttle expensive sinks on the
	// caller side). Progress does not require Stats: a private counter set
	// is used when Stats is nil.
	Progress func(ProgressSnapshot)
	// Checkpoint, when non-nil, receives each (family, batch) group's
	// winner at the moment the group's last candidate resolves — while
	// the rest of the sweep is still running. It is the sweep-journaling
	// hook: a caller that durably records every (GroupKey, Best) it
	// receives can, after a crash, restart the sweep with those records
	// as Resume and re-price only the unfinished groups. Invocations are
	// serialized by the search (no locking needed in the callback); they
	// run on worker goroutines, so expensive sinks should buffer.
	// Groups that error, find no feasible configuration, or are cut off
	// by cancellation are not checkpointed. The callback never fires for
	// groups satisfied from Resume.
	Checkpoint func(GroupKey, Best)
	// Resume maps already-resolved groups to their journaled winners.
	// A group found here is not enumerated or priced at all — its Best
	// is returned as recorded — so a resumed sweep pays only for the
	// groups the original run had not finished. Because each group's
	// winner is deterministic and independent of every other group
	// (warm-start seeds never change winners, only pricing effort), the
	// resumed table is byte-identical to an uninterrupted run's.
	Resume map[GroupKey]Best
}

// progressStride is how many candidate resolutions may pass between two
// Progress snapshots (milestones — enumeration, warm start, the terminal
// state — always emit).
const progressStride = 16

// Optimize searches one family at one global batch size and returns the
// most efficient feasible configuration. Candidate plans are simulated
// concurrently on Options.Workers goroutines; the winner is the
// lowest-indexed plan (in Enumerate order) of maximal throughput, matching
// the serial path tie-for-tie. Cancelling ctx aborts the search between
// candidate simulations and returns ctx.Err().
func Optimize(ctx context.Context, c hw.Cluster, m model.Transformer, f Family, batch int, opt Options) (Best, error) {
	if opt.MaxMicroBatch <= 0 {
		opt.MaxMicroBatch = 16
	}
	if b, ok := opt.Resume[GroupKey{Family: f.Info().Key, Batch: batch}]; ok {
		return b, nil
	}
	plans := Enumerate(ctx, c, m, f, batch, opt)
	if err := ctx.Err(); err != nil {
		return Best{}, err
	}
	if len(plans) == 0 {
		return Best{}, fmt.Errorf("search: %w for %v at batch %d", ErrInfeasible, f, batch)
	}
	bests, errs, err := evalGroups(ctx, c, m, [][]core.Plan{plans}, []string{f.Info().Key}, opt)
	if err != nil {
		return Best{}, err
	}
	if errs[0] != nil {
		return Best{}, errs[0]
	}
	return *bests[0], nil
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

// job carries one candidate plan through the shared work list.
type job struct {
	plan     core.Plan
	group    int     // index into the (family, batch) group list
	idx      int     // enumeration index within the group (the tie order)
	ub       float64 // analytic throughput upper bound (FlopPerGPU / lower bound)
	flop     float64 // BatchFlopPerGPU, shared by the cascade's two pricings
	exact    bool    // the bound equals the simulated time bit for bit
	replay   bool    // the method has a tier-2 exact replay (StepLB hook)
	prune    bool    // dominated by its group's warm-start seed
	failed   bool    // precheck reported the error a simulation would
	deferred bool    // exactly priced, simulation deferred to the final pass
}

// incumbent is the shared best-simulated-so-far record of one group. Its
// rule mirrors pickBest: a candidate is covered (provably not the winner)
// when its throughput upper bound is strictly below the incumbent, or ties
// it while the incumbent has the lower enumeration index. The minimal-index
// maximal-throughput candidate is never covered, so the reduced winner is
// identical to the unpruned one.
type incumbent struct {
	mu  sync.Mutex
	ok  bool
	tp  float64
	idx int
}

func (inc *incumbent) covers(ub float64, idx int) bool {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.ok && (ub < inc.tp || (ub == inc.tp && inc.idx < idx))
}

func (inc *incumbent) update(tp float64, idx int) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if !inc.ok || tp > inc.tp || (tp == inc.tp && idx < inc.idx) {
		inc.ok, inc.tp, inc.idx = true, tp, idx
	}
}

// simOut is one slot of the shared result table.
type simOut struct {
	res engine.Result
	ran bool
	err error
}

// evalGroups evaluates the candidate groups (one per (family, batch), with
// keys carrying each group's family key for the per-family statistics)
// over one shared worker pool and reduces each to its winner. It returns
// one Best per group (nil when the group is empty or a simulation failed)
// and the lowest-indexed per-group error; the final error is non-nil only
// when ctx was cancelled. Even then the per-group results are returned:
// each reflects only fully-simulated candidates, so a group's Best is its
// incumbent-so-far — a valid (if possibly non-optimal) configuration that
// callers surfacing graceful degradation may report alongside the error.
// With pruning active, candidates
// are prechecked (so a candidate whose simulation would error reports it
// even when the bounds would have skipped it), priced by the tier-1
// analytic floor, ordered cheapest-bound-first, warm-start-seeded per
// group, and skipped against the group incumbent — paying the tier-2
// exact replay only for candidates the floor fails to settle; the winner
// — and the lowest-index error — is provably the one the unpruned path
// reports either way.
func evalGroups(ctx context.Context, c hw.Cluster, m model.Transformer, groups [][]core.Plan, keys []string, opt Options) ([]*Best, []error, error) {
	if opt.Stats == nil && opt.Progress != nil {
		// Progress is built on the counters; give it a private set when the
		// caller did not ask to keep them.
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
	var jobs []job
	bounds := make([]int, 0, len(groups)+1) // group boundaries in jobs
	bounds = append(bounds, 0)
	for gi, g := range groups {
		for i, p := range g {
			jobs = append(jobs, job{plan: p, group: gi, idx: i})
		}
		bounds = append(bounds, len(jobs))
	}
	famStats := make([]*FamilyStats, len(groups))
	if opt.Stats != nil {
		opt.Stats.Enumerated.Add(int64(len(jobs)))
		for gi := range groups {
			if keys[gi] != "" {
				famStats[gi] = opt.Stats.Family(keys[gi])
				famStats[gi].Enumerated.Add(int64(len(groups[gi])))
			}
		}
	}

	progress(true) // enumeration counted: the 0%-done snapshot

	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	prune := !opt.NoPrune
	workers := parallel.Resolve(opt.Workers)
	eopt := engine.Options{Params: opt.Params}
	outs := make([]simOut, len(jobs))
	lbs := make([]float64, len(jobs))
	incs := make([]incumbent, len(groups))
	// Checkpoint support: each group carries a pending-candidate counter,
	// decremented exactly once per candidate at its terminal resolution
	// point (simulated, bound-skipped, dominated, or failed). The worker
	// that takes a counter to zero owns the group's reduction: the atomic
	// decrement orders it after every sibling's outs[] write, so the scan
	// below sees the complete segment. Cancelled runs leave unfinished
	// groups above zero — exactly the groups that must not be journaled.
	resolve := func(int) {}
	if opt.Checkpoint != nil {
		var checkpointMu sync.Mutex
		pending := make([]atomic.Int64, len(groups))
		for gi := range groups {
			pending[gi].Store(int64(bounds[gi+1] - bounds[gi]))
		}
		resolve = func(gi int) {
			if pending[gi].Add(-1) != 0 {
				return
			}
			seg := outs[bounds[gi]:bounds[gi+1]]
			ran := make([]engine.Result, 0, 4)
			for i := range seg {
				if seg[i].err != nil {
					return // errored groups re-run on resume
				}
				if seg[i].ran {
					ran = append(ran, seg[i].res)
				}
			}
			if len(ran) == 0 {
				return // nothing feasible: nothing worth journaling
			}
			b := pickBest(ran)
			b.Configs = len(seg)
			key := GroupKey{Family: keys[gi], Batch: groups[gi][0].BatchSize()}
			checkpointMu.Lock()
			defer checkpointMu.Unlock()
			opt.Checkpoint(key, b)
		}
	}
	par := engine.Defaults()
	if opt.Params != nil {
		par = *opt.Params
	}
	if prune && len(jobs) > 0 {
		// Precheck and floor-price every candidate on the same worker pool
		// the simulations use (each entry is independent, so the pass is
		// deterministic). Recording precheck failures here, before any
		// pruning decision, is what makes the per-candidate errors
		// independent of pruning: the failing candidate reports even when
		// the bounds would have skipped its simulation.
		parallel.MapCtx(ctx, workers, jobs, func(i int, _ job) (struct{}, error) {
			j := &jobs[i]
			if err := engine.Precheck(c, m, j.plan, eopt); err != nil {
				outs[i].err = fmt.Errorf("search: %v: %w", j.plan, err)
				j.failed = true
				return struct{}{}, nil
			}
			j.flop = m.BatchFlopPerGPU(j.plan.MicroBatch, j.plan.NumMicro, j.plan.PP, j.plan.TP)
			// Tier 1: the cheap floor. Whether an exact tier-2 price exists
			// is a trait of the method, recorded for the execution pass.
			tr := schedule.TraitsOf(j.plan.Method)
			j.replay = tr.StepLB != nil || tr.StepLBCached != nil
			lb := analytic.Floor(c, m, j.plan, &par)
			lbs[i] = lb
			if lb > 0 {
				j.ub = j.flop / lb
			} else {
				j.ub = math.Inf(1)
			}
			return struct{}{}, nil
		})
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := seedGroups(ctx, c, m, groups, keys, jobs, bounds, lbs, incs, &par, famStats, opt.Stats); err != nil {
			return nil, nil, err
		}
		progress(true) // the seed pass resolved its share of the candidates
		// Cheapest (fastest-looking) bound first, stable on the flat
		// enumeration order: the likely winners simulate early and the
		// incumbent tightens before the long tail is reached.
		sort.SliceStable(order, func(a, b int) bool { return lbs[order[a]] < lbs[order[b]] })
	}

	countSim := func(j *job) {
		if opt.Stats != nil {
			opt.Stats.Simulated.Add(1)
			if fs := famStats[j.group]; fs != nil {
				fs.Simulated.Add(1)
			}
		}
	}
	countSkip := func(j *job) {
		if opt.Stats != nil {
			opt.Stats.BoundSkipped.Add(1)
			fs := famStats[j.group]
			if fs != nil {
				fs.BoundSkipped.Add(1)
			}
			if !j.exact {
				// Skipped on the tier-1 floor alone: the candidate never
				// paid an exact replay.
				opt.Stats.FlooredOut.Add(1)
				if fs != nil {
					fs.FlooredOut.Add(1)
				}
			}
		}
	}
	_, ctxErr := parallel.MapCtx(ctx, workers, order, func(_ int, ji int) (struct{}, error) {
		j := &jobs[ji]
		if j.failed {
			// The precheck already recorded the exact error the simulation
			// would produce; count it as simulated, which is what the
			// unpruned path would have done.
			countSim(j)
			progress(false)
			resolve(j.group)
			return struct{}{}, nil
		}
		if j.prune {
			resolve(j.group)
			return struct{}{}, nil
		}
		if prune && incs[j.group].covers(j.ub, j.idx) {
			countSkip(j)
			progress(false)
			resolve(j.group)
			return struct{}{}, nil
		}
		if prune && j.replay && !j.exact {
			// Tier 2: the floor failed to settle this candidate against the
			// incumbent; pay the exact O(ops) replay once. Both tiers are
			// admissible, so tightening the bound here can only turn "maybe"
			// into "provably not the winner" — never the other way.
			lb, exact := analytic.LowerBound(c, m, j.plan, &par)
			if opt.Stats != nil {
				opt.Stats.ReplayPriced.Add(1)
				if fs := famStats[j.group]; fs != nil {
					fs.ReplayPriced.Add(1)
				}
			}
			if lb > 0 {
				j.ub = j.flop / lb
			} else {
				j.ub = math.Inf(1)
			}
			j.exact = exact
			if exact {
				// The replay is the simulated time bit for bit, so the ub
				// is this candidate's true throughput: publish it before
				// simulating so siblings prune against it immediately.
				incs[j.group].update(j.ub, j.idx)
			}
			if incs[j.group].covers(j.ub, j.idx) {
				countSkip(j)
				progress(false)
				resolve(j.group)
				return struct{}{}, nil
			}
		}
		if prune && j.exact {
			// The exact price IS the simulated time, so nothing more is
			// learned by simulating now; defer the simulation to the final
			// pass, which runs it only if the candidate still survives the
			// fully-tightened incumbent (one simulation per group in the
			// common case — the others resolve to bound skips).
			j.deferred = true
			return struct{}{}, nil
		}
		r, err := engine.SimulateOpts(c, m, j.plan, eopt)
		countSim(j) // reached the simulator, error or not
		progress(false)
		if err != nil {
			// Enumeration bugs should surface loudly; feasibility issues
			// are filtered beforehand, and the precheck above already
			// guarantees pruning cannot mask this error.
			outs[ji].err = fmt.Errorf("search: %v: %w", j.plan, err)
			resolve(j.group)
			return struct{}{}, nil
		}
		outs[ji] = simOut{res: r, ran: true}
		if prune {
			incs[j.group].update(r.Throughput, j.idx)
		}
		resolve(j.group)
		return struct{}{}, nil
	})
	if prune && ctxErr == nil {
		// Final pass over the deferred exactly-priced candidates, best
		// first per group: the leader simulates (producing the full
		// engine.Result the winner needs), which makes every remaining
		// deferred sibling a bound skip — their exact prices cannot beat a
		// published true throughput of equal value and lower index. Ties
		// are ordered index-ascending, so the lowest-index max simulates
		// and the rest skip, preserving the pickBest rule exactly.
	deferredGroups:
		for gi := range groups {
			seg := jobs[bounds[gi]:bounds[gi+1]]
			var pend []int
			for i := range seg {
				if seg[i].deferred {
					pend = append(pend, i)
				}
			}
			sort.Slice(pend, func(a, b int) bool {
				ja, jb := &seg[pend[a]], &seg[pend[b]]
				if ja.ub != jb.ub {
					return ja.ub > jb.ub
				}
				return ja.idx < jb.idx
			})
			for _, i := range pend {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					break deferredGroups
				}
				j := &seg[i]
				if incs[gi].covers(j.ub, j.idx) {
					countSkip(j)
					progress(false)
					resolve(gi)
					continue
				}
				r, err := engine.SimulateOpts(c, m, j.plan, eopt)
				countSim(j)
				progress(false)
				if err != nil {
					outs[bounds[gi]+i].err = fmt.Errorf("search: %v: %w", j.plan, err)
					resolve(gi)
					continue
				}
				outs[bounds[gi]+i] = simOut{res: r, ran: true}
				incs[gi].update(r.Throughput, j.idx)
				resolve(gi)
			}
		}
	}
	progress(true) // terminal snapshot (100% unless ctx cancelled the run)

	bests := make([]*Best, len(groups))
	errs := make([]error, len(groups))
	var ran []engine.Result
	for gi := range groups {
		seg := outs[bounds[gi]:bounds[gi+1]]
		ran = ran[:0] // simulated results in enumeration order
		for i := range seg {
			if seg[i].err != nil {
				errs[gi] = seg[i].err
				ran = ran[:0]
				break
			}
			if seg[i].ran {
				ran = append(ran, seg[i].res)
			}
		}
		if len(ran) > 0 {
			// Skipped candidates provably cannot win, so pickBest over the
			// simulated subset applies the exact serial selection rule.
			b := pickBest(ran)
			b.Configs = len(seg)
			bests[gi] = &b
		}
	}
	return bests, errs, ctxErr
}

// matchShape reports whether two plans differ at most in the
// batch-dependent NumMicro field — the "same grid point, different batch"
// relation the warm-start pass uses to re-find a neighboring group's
// winner shape among this group's candidates.
func matchShape(a, b core.Plan) bool {
	a.NumMicro, b.NumMicro = 0, 0
	return a == b
}

// seedGroups warm-starts each group's incumbent before the execution pass
// runs: it exactly prices up to two seed candidates per group — the
// group's own cheapest-floor replayable candidate, and (within a family,
// descending batch order) the previous group's best seed's plan shape
// re-matched in this group — publishes the best seed's true throughput as
// the group incumbent, and dominance-marks the candidates whose floor
// bound already falls below it. Soundness never relies on a neighbor's
// throughput *value* (which belongs to a different batch): the neighbor
// only nominates which candidate to price exactly here, and the published
// incumbent is always a bit-exact replay of a candidate of this very
// group, so the covers/update invariant is untouched. The pass is serial
// and depends only on the enumeration, the floors and the replays, so the
// Dominated counter stays deterministic at any worker count. Groups with
// no replayable candidate (the list-scheduled V-schedule family) get no
// seed and start against an empty incumbent.
func seedGroups(ctx context.Context, c hw.Cluster, m model.Transformer, groups [][]core.Plan, keys []string, jobs []job, bounds []int, lbs []float64, incs []incumbent, par *engine.Params, famStats []*FamilyStats, stats *Stats) error {
	// Family key ascending, batch descending: the largest batch resolves
	// first, so its winner shape — typically stable across adjacent grid
	// points — seeds the smaller batches of the same family.
	order := make([]int, 0, len(groups))
	for gi := range groups {
		if len(groups[gi]) > 0 {
			order = append(order, gi)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga, gb := order[a], order[b]
		if keys[ga] != keys[gb] {
			return keys[ga] < keys[gb]
		}
		return groups[ga][0].BatchSize() > groups[gb][0].BatchSize()
	})
	prevWinner := map[string]core.Plan{}
	for _, gi := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		seg := jobs[bounds[gi]:bounds[gi+1]]
		// Own seed: the replayable candidate with the smallest floor (the
		// fastest-looking one; strict < keeps the lowest index on ties).
		own := -1
		for i := range seg {
			if seg[i].failed || !seg[i].replay {
				continue
			}
			if own < 0 || lbs[bounds[gi]+i] < lbs[bounds[gi]+own] {
				own = i
			}
		}
		// Neighbor seed: the adjacent group's winner shape, if it exists
		// among this group's candidates (lowest index on ambiguity, which
		// cannot arise for distinct enumerated plans).
		neighbor := -1
		if prev, ok := prevWinner[keys[gi]]; ok {
			for i := range seg {
				if seg[i].failed || !seg[i].replay || i == own {
					continue
				}
				if matchShape(seg[i].plan, prev) {
					neighbor = i
					break
				}
			}
		}
		// Price the seeds exactly; a seed priced only by its floor (no
		// checked schedule) is discarded.
		price := func(i int) (float64, bool) {
			if i < 0 {
				return 0, false
			}
			j := &seg[i]
			lb, exact := analytic.LowerBound(c, m, j.plan, par)
			if stats != nil {
				stats.ReplayPriced.Add(1)
				if fs := famStats[gi]; fs != nil {
					fs.ReplayPriced.Add(1)
				}
			}
			if !exact || lb <= 0 {
				return 0, false
			}
			j.ub = j.flop / lb
			j.exact = true
			return j.ub, true
		}
		ownUb, ownOK := price(own)
		nbUb, nbOK := price(neighbor)
		best, bestUb := -1, 0.0
		if ownOK {
			best, bestUb = own, ownUb
		}
		if nbOK && (!ownOK || nbUb > ownUb || (nbUb == ownUb && seg[neighbor].idx < seg[own].idx)) {
			best, bestUb = neighbor, nbUb
			if stats != nil {
				stats.WarmStartHits.Add(1)
				if fs := famStats[gi]; fs != nil {
					fs.WarmStartHits.Add(1)
				}
			}
		}
		if best < 0 {
			continue
		}
		incs[gi].update(bestUb, seg[best].idx)
		// Dominance against the seed's true throughput: a candidate whose
		// admissible upper bound falls below it — or ties it from a higher
		// index — can never win under the pickBest rule. Candidates whose
		// precheck failed carry no bound and are left alone: their error
		// must surface regardless of pruning.
		for i := range seg {
			j := &seg[i]
			if j.failed {
				continue
			}
			if j.ub < bestUb || (j.ub == bestUb && seg[best].idx < j.idx) {
				j.prune = true
				if stats != nil {
					stats.Dominated.Add(1)
					if fs := famStats[gi]; fs != nil {
						fs.Dominated.Add(1)
					}
				}
			}
		}
		prevWinner[keys[gi]] = seg[best].plan
	}
	return nil
}

// Sweep runs the family's search across batch sizes, skipping batches with
// no feasible configuration, and returns the Figure 7 series in batch
// order. All batches' candidate plans are flattened into one work list
// evaluated by a single worker pool, so Options.Workers is a true bound on
// concurrent simulations (no nested fan-out) and no barrier separates
// batches. Results are identical to calling Optimize per batch. Cancelling
// ctx aborts the sweep between candidate simulations and returns the
// incumbents-so-far (each batch's best fully-simulated candidate) alongside
// ctx.Err(); callers that cannot use a partial table must discard it.
func Sweep(ctx context.Context, c hw.Cluster, m model.Transformer, f Family, batches []int, opt Options) ([]Best, error) {
	if opt.MaxMicroBatch <= 0 {
		opt.MaxMicroBatch = 16
	}
	key := f.Info().Key
	resumed := make([]*Best, len(batches))
	var groups [][]core.Plan
	var keys []string
	gi := make([]int, len(batches))
	for bi, b := range batches {
		if rb, ok := opt.Resume[GroupKey{Family: key, Batch: b}]; ok {
			rb := rb
			resumed[bi] = &rb
			gi[bi] = -1
			continue
		}
		gi[bi] = len(groups)
		groups = append(groups, Enumerate(ctx, c, m, f, b, opt))
		keys = append(keys, key)
	}
	bests, _, err := evalGroups(ctx, c, m, groups, keys, opt)
	var out []Best
	for bi := range batches {
		if resumed[bi] != nil {
			out = append(out, *resumed[bi])
		} else if b := bests[gi[bi]]; b != nil {
			out = append(out, *b)
		}
	}
	if err != nil {
		return out, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("search: %w for %v at any batch", ErrInfeasible, f)
	}
	return out, nil
}

// SweepAll runs the sweeps of several families over one shared work list:
// every family's candidates at every batch size are flattened into a
// single bounded worker pool, so a family with few candidates no longer
// leaves workers idle while another family's long tail drains, and the
// branch-and-bound incumbents stay per (family, batch) group. Results are
// identical to calling Sweep per family; families with no feasible
// configuration at any batch are omitted from the map, and an error is
// returned only when that leaves the map empty. Cancelling ctx aborts the
// sweep between candidate simulations and returns the incumbents-so-far —
// each (family, batch) group's best fully-simulated candidate, a valid if
// possibly non-optimal configuration — alongside ctx.Err(). The service
// layer turns that partial map into a degraded response on deadline;
// callers that cannot use a partial table must discard it on error.
func SweepAll(ctx context.Context, c hw.Cluster, m model.Transformer, fams []Family, batches []int, opt Options) (map[Family][]Best, error) {
	if opt.MaxMicroBatch <= 0 {
		opt.MaxMicroBatch = 16
	}
	// Resumed (family, batch) groups — journaled winners of a previous,
	// interrupted run — are subtracted from the work list before
	// enumeration and merged back below; the survivors share one flat
	// pool exactly as before.
	resumed := make([]*Best, len(fams)*len(batches))
	gi := make([]int, len(fams)*len(batches))
	var groups [][]core.Plan
	var keys []string
	for fi, f := range fams {
		key := f.Info().Key
		for bi, b := range batches {
			ci := fi*len(batches) + bi
			if rb, ok := opt.Resume[GroupKey{Family: key, Batch: b}]; ok {
				rb := rb
				resumed[ci] = &rb
				gi[ci] = -1
				continue
			}
			gi[ci] = len(groups)
			groups = append(groups, Enumerate(ctx, c, m, f, b, opt))
			keys = append(keys, key)
		}
	}
	bests, _, err := evalGroups(ctx, c, m, groups, keys, opt)
	out := map[Family][]Best{}
	for fi, f := range fams {
		var fam []Best
		for bi := range batches {
			ci := fi*len(batches) + bi
			if resumed[ci] != nil {
				fam = append(fam, *resumed[ci])
			} else if b := bests[gi[ci]]; b != nil {
				fam = append(fam, *b)
			}
		}
		if len(fam) > 0 {
			out[f] = fam
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
