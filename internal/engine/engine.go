// Package engine simulates one training batch of a (cluster, model, plan)
// configuration by mapping the generated schedule onto the discrete-event
// simulator: compute operations on per-device compute streams,
// pipeline-parallel transfers, data-parallel reductions and weight
// reconstructions, tensor-parallel all-reduce overheads and the optimizer
// step. It reports batch time, throughput (paper Eq. 11 over time), GPU
// utilization and an overhead breakdown, plus the memory estimate.
//
// Implementation traits follow Section 5: the paper's implementation
// overlaps data- and pipeline-parallel communication on separate streams
// (Plan.OverlapDP/OverlapPP true); the Megatron-LM baseline (1F1B and
// depth-first) does not, paying per-message blocking costs on the compute
// stream that Section 5.2 and Appendix D.2 attribute to latency,
// synchronization and allocator stalls.
//
// Simulate is safe for concurrent use: the grid search fans plans out
// across a worker pool (internal/parallel), and schedule generation and
// memory estimates are memoized across calls (plans that differ only in
// TP, micro-batch size or DP width share device programs). The tests
// compare this path with a freshly generated schedule run through the
// simulator's reference loop (des.Sim.RunReference).
package engine

import (
	"fmt"
	"sync"

	"bfpp/internal/core"
	"bfpp/internal/cost"
	"bfpp/internal/des"
	"bfpp/internal/hw"
	"bfpp/internal/memsim"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// Params are the engine's calibration constants plus the cost-model
// selection; the type lives in internal/cost (the cost-model subsystem)
// and is aliased here so every existing signature that threads
// *engine.Params keeps compiling unchanged.
type Params = cost.Params

// Defaults returns the calibrated engine constants (and the default paper
// cost model, as the zero Model field).
func Defaults() Params { return cost.DefaultParams() }

// Result is the outcome of simulating one training batch.
type Result struct {
	// Plan is the simulated configuration.
	Plan core.Plan
	// BatchTime is the simulated wall time of one batch in seconds.
	BatchTime float64
	// FlopPerGPU is the per-GPU useful compute of the batch (Eq. 11).
	FlopPerGPU float64
	// Throughput is FlopPerGPU / BatchTime in flop/s.
	Throughput float64
	// Utilization is Throughput / peak flop/s.
	Utilization float64
	// ComputeTime is the busy compute-stream time of the slowest device.
	ComputeTime float64
	// PPCommTime and DPCommTime are total transfer times (worst device).
	PPCommTime, DPCommTime float64
	// Bubble is the analytic pipeline-bubble fraction (Eq. 9).
	Bubble float64
	// Memory is the per-GPU memory estimate.
	Memory memsim.Breakdown
	// Timeline is the simulated execution trace (nil unless requested).
	Timeline *des.Timeline
}

// String formats the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%v: %.2f Tflop/s/GPU (%.1f%% util), batch %.3fs, mem %.1f GiB",
		r.Plan, r.Throughput/1e12, 100*r.Utilization, r.BatchTime,
		r.Memory.Total()/(1<<30))
}

// Options controls simulation extras.
type Options struct {
	// CaptureTimeline retains the full DES timeline in the result.
	CaptureTimeline bool
	// Params overrides the calibration constants when non-zero.
	Params *Params
}

// Simulate runs one batch with default options.
func Simulate(c hw.Cluster, m model.Transformer, p core.Plan) (Result, error) {
	return SimulateOpts(c, m, p, Options{})
}

// prepare runs every validation that precedes the discrete-event
// simulation — cluster and plan validity, the GPU budget, schedule
// generation and invariant checking — and returns the checked schedule.
// It is the single producer of SimulateOpts' pre-simulation errors, so
// Precheck reports exactly what a simulation would.
func prepare(c hw.Cluster, m model.Transformer, p core.Plan) (*schedule.Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(m); err != nil {
		return nil, err
	}
	if p.GPUs() > c.NumGPUs() {
		return nil, fmt.Errorf("engine: plan needs %d GPUs, cluster has %d", p.GPUs(), c.NumGPUs())
	}
	sched, err := schedule.Cached(p)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return sched, nil
}

// Precheck returns the error SimulateOpts would return before reaching the
// simulator — nil when the configuration simulates cleanly (a registered
// generator's checked schedule cannot deadlock the DES). The grid search
// uses it to surface per-candidate errors deterministically even for
// candidates the branch-and-bound never simulates; schedule generation is
// memoized, so a subsequent simulation pays nothing extra. It takes the
// simulation's Options so callers can pass one value to both; no option
// changes the prechecks.
func Precheck(c hw.Cluster, m model.Transformer, p core.Plan, _ Options) error {
	_, err := prepare(c, m, p)
	return err
}

// SimulateOpts runs one batch of the configuration and returns the result.
func SimulateOpts(c hw.Cluster, m model.Transformer, p core.Plan, opt Options) (Result, error) {
	sched, err := prepare(c, m, p)
	if err != nil {
		return Result{}, err
	}
	par := Defaults()
	if opt.Params != nil {
		par = *opt.Params
	}

	b := builder{c: c, m: m, p: p, par: par, sched: sched}
	tl, err := b.run()
	if err != nil {
		b.release()
		return Result{}, err
	}

	res := Result{
		Plan:       p,
		BatchTime:  tl.Makespan,
		FlopPerGPU: m.BatchFlopPerGPU(p.MicroBatch, p.NumMicro, p.PP, p.TP),
		Bubble:     p.Bubble(),
		Memory:     memsim.CachedEstimate(m, p),
	}
	res.Throughput = res.FlopPerGPU / res.BatchTime
	res.Utilization = res.Throughput / c.GPU.PeakFlops
	for dev := range sched.Devices {
		if t := tl.BusyTime(b.computeStream[dev]); t > res.ComputeTime {
			res.ComputeTime = t
		}
		if b.ppStream != nil {
			if t := tl.BusyTime(b.ppStream[dev]); t > res.PPCommTime {
				res.PPCommTime = t
			}
		}
		if b.dpStream != nil {
			if t := tl.BusyTime(b.dpStream[dev]); t > res.DPCommTime {
				res.DPCommTime = t
			}
		}
	}
	if b.ppStream == nil {
		// Transfers rode the compute streams; account them by class.
		res.PPCommTime = tl.ClassTime(-1, des.ClassSend)
	}
	if b.dpStream == nil {
		res.DPCommTime = tl.ClassTime(-1, des.ClassReduce) + tl.ClassTime(-1, des.ClassRestore)
	}
	if opt.CaptureTimeline {
		res.Timeline = tl
	}
	b.release()
	return res, nil
}

// builder assembles the DES model.
type builder struct {
	c     hw.Cluster
	m     model.Transformer
	p     core.Plan
	par   Params
	sched *schedule.Schedule

	sim           *des.Sim
	scratch       *buildScratch
	computeStream []des.StreamID
	ppStream      []des.StreamID // nil when PP transfers ride the compute stream
	dpStream      []des.StreamID // nil when DP ops ride the compute stream

	// Cost constants derived once.
	tFwd, tBwd float64 // per stage per micro-batch
	tTransfer  float64 // PP transfer wire time
	tPPStall   float64 // non-overlapped per-message blocking stall
	tReduce    float64 // per-stage gradient reduction
	tRestore   float64 // per-stage weight reconstruction (DP-FS)
	tOpt       float64 // optimizer step
	nStages    int
}

const noTask = des.TaskID(-1)

// simPool recycles simulators across simulations: a Reset Sim keeps its
// task, queue and dependency storage, so the steady-state build path of a
// sweep allocates almost nothing. Sims are handed to exactly one goroutine
// at a time; the returned Timeline shares nothing with the pooled Sim.
var simPool = sync.Pool{New: func() any { return des.New() }}

// buildScratch holds the builder's per-simulation tracking slices (stream
// ids, per-(stage, micro) task and transfer trackers, restore/reduce
// bookkeeping). Pooling it — analogous to the des.Sim pool — takes the
// steady-state Simulate build path to near-zero allocations.
type buildScratch struct {
	compute, pp, dp []des.StreamID
	fwdTask         []des.TaskID
	bwdTask         []des.TaskID
	fwdSend         []des.TaskID
	bwdSend         []des.TaskID
	restoreIdx      []int
	restores        []des.TaskID
	restoreConsumer []des.TaskID
	reduces         []des.TaskID
	deps            []des.TaskID
}

var scratchPool = sync.Pool{New: func() any { return &buildScratch{} }}

// release returns the builder's pooled resources; the builder must not be
// used afterwards. The returned Timeline shares nothing with the scratch.
func (b *builder) release() {
	if b.scratch == nil {
		return
	}
	scratchPool.Put(b.scratch)
	b.scratch = nil
	b.computeStream, b.ppStream, b.dpStream = nil, nil, nil
}

// grow resizes a reusable buffer to length n, reallocating only when the
// retained capacity is too small. Contents are unspecified; callers clear
// what they need.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// maxCachedDev bounds the precomputed stream-name table; device indexes
// beyond it (wider than any paper configuration) fall back to Sprintf.
const maxCachedDev = 128

// streamNames interns the per-device stream names so the per-simulation
// fmt.Sprintf calls the profiler flagged (ROADMAP alloc hot spot) vanish
// from the steady state.
var streamNames = func() (t [3][maxCachedDev]string) {
	for d := 0; d < maxCachedDev; d++ {
		t[0][d] = fmt.Sprintf("gpu%d/compute", d)
		t[1][d] = fmt.Sprintf("gpu%d/pp", d)
		t[2][d] = fmt.Sprintf("gpu%d/dp", d)
	}
	return
}()

var streamKinds = [3]string{"compute", "pp", "dp"}

// streamName returns the interned device stream name for kind (0 compute,
// 1 pp, 2 dp).
func streamName(kind, dev int) string {
	if dev < maxCachedDev {
		return streamNames[kind][dev]
	}
	return fmt.Sprintf("gpu%d/%s", dev, streamKinds[kind])
}

// run builds the task graph on a pooled simulator and executes it with
// the indexed DES loop.
func (b *builder) run() (*des.Timeline, error) {
	b.sim = simPool.Get().(*des.Sim)
	defer func() {
		simPool.Put(b.sim)
		b.sim = nil
	}()
	b.build()
	return b.sim.Run()
}

// build resets b.sim and assembles the schedule's task graph into it: one
// task per schedule op on the device streams plus the cross-device
// transfers, every dependency wired. The graph is left unexecuted.
func (b *builder) build() {
	p := b.p
	b.deriveCosts()
	b.sim.Reset()

	nDev := len(b.sched.Devices)
	sc := scratchPool.Get().(*buildScratch)
	b.scratch = sc
	b.computeStream = grow(&sc.compute, nDev)
	for d := 0; d < nDev; d++ {
		b.computeStream[d] = b.sim.Stream(streamName(0, d))
	}
	ppSide, dpSide := schedule.SideStreams(p)
	if ppSide {
		b.ppStream = grow(&sc.pp, nDev)
		for d := 0; d < nDev; d++ {
			b.ppStream[d] = b.sim.Stream(streamName(1, d))
		}
	}
	if dpSide {
		b.dpStream = grow(&sc.dp, nDev)
		for d := 0; d < nDev; d++ {
			b.dpStream[d] = b.sim.Stream(streamName(2, d))
		}
	}

	// Pre-size the simulator: every schedule op becomes one task, plus one
	// transfer task per cross-device stage boundary crossing (with the
	// looping placement every adjacent stage pair is cross-device when
	// PP > 1). Each task carries a couple of dependency edges, and the
	// transfer wiring rewrites its consumers' lists once more.
	var nOps int
	for _, prog := range b.sched.Devices {
		nOps += len(prog)
	}
	nTransfers := 0
	if p.Method.Pipelined() && p.PP > 1 {
		nTransfers = 2 * (b.nStages - 1) * p.NumMicro
	}
	b.sim.Reserve(nOps+nTransfers, 2*nOps+4*nTransfers)
	for dev, prog := range b.sched.Devices {
		b.sim.ReserveStream(b.computeStream[dev], len(prog))
		if b.ppStream != nil {
			b.sim.ReserveStream(b.ppStream[dev], len(prog))
		}
		if b.dpStream != nil {
			b.sim.ReserveStream(b.dpStream[dev], len(prog))
		}
	}

	// Compute task and inbound-transfer trackers per (stage, micro),
	// flattened to pooled slices: the hot path replaces four map lookups
	// per op with array indexing, and the slices hold only integer ids so
	// their reuse costs no pointer-aware clearing.
	nm := p.NumMicro
	nk := b.nStages * nm
	fwdTask := grow(&sc.fwdTask, nk) // compute task per (stage, micro)
	bwdTask := grow(&sc.bwdTask, nk)
	fwdSend := grow(&sc.fwdSend, nk) // transfer feeding Forward(stage, micro)
	bwdSend := grow(&sc.bwdSend, nk) // transfer feeding Backward(stage, micro)
	for i := 0; i < nk; i++ {
		fwdTask[i], bwdTask[i], fwdSend[i], bwdSend[i] = noTask, noTask, noTask, noTask
	}
	key := func(stage, micro int) int { return stage*nm + micro }

	// Per-device restore bookkeeping, reused across devices. restoreIdx is
	// keyed by (stage, micro) with micro in [-1, NumMicro): index
	// stage*(nm+1) + micro + 1.
	restoreIdx := grow(&sc.restoreIdx, b.nStages*(nm+1))
	restores := sc.restores[:0]               // device restores in order (double buffering)
	restoreConsumer := sc.restoreConsumer[:0] // per restore: last consumer
	reduces := sc.reduces[:0]
	deps := sc.deps[:0]

	// Pass 1: create tasks in program order; wire same-device dependencies
	// immediately, recording cross-device endpoints for pass 2.
	for dev, prog := range b.sched.Devices {
		comp := b.computeStream[dev]
		sendStream := comp
		if b.ppStream != nil {
			sendStream = b.ppStream[dev]
		}
		dpStream := comp
		if b.dpStream != nil {
			dpStream = b.dpStream[dev]
		}
		for i := range restoreIdx {
			restoreIdx[i] = -1
		}
		restores = restores[:0]
		restoreConsumer = restoreConsumer[:0]
		reduces = reduces[:0]

		lastRestoreFor := func(stage, micro int) (des.TaskID, int, bool) {
			if i := restoreIdx[stage*(nm+1)+micro+1]; i >= 0 {
				return restores[i], i, true
			}
			if i := restoreIdx[stage*(nm+1)]; i >= 0 { // per-batch restore (micro -1)
				return restores[i], i, true
			}
			return 0, 0, false
		}

		for _, op := range prog {
			switch op.Kind {
			case schedule.Forward, schedule.Backward:
				class := des.ClassFwd
				dur := b.tFwd
				if op.Kind == schedule.Backward {
					class, dur = des.ClassBwd, b.tBwd
				}
				deps = deps[:0]
				rt, ri, hasRestore := lastRestoreFor(op.Stage, op.Micro)
				if hasRestore {
					deps = append(deps, rt)
				}
				t := b.sim.AddTagged(comp, dur, class, op.Stage, op.Micro, deps...)
				if op.Kind == schedule.Forward {
					fwdTask[key(op.Stage, op.Micro)] = t
				} else {
					bwdTask[key(op.Stage, op.Micro)] = t
				}
				if hasRestore {
					restoreConsumer[ri] = t
				}
				// Emit the outgoing transfer produced by this op.
				if next, ok := b.transferOutOf(op); ok {
					dur := b.tTransfer
					if b.ppStream == nil {
						dur += b.tPPStall
					}
					st := b.sim.AddTagged(sendStream, dur, des.ClassSend, op.Stage, op.Micro, t)
					if op.Kind == schedule.Forward {
						fwdSend[next] = st
					} else {
						bwdSend[next] = st
					}
				}
			case schedule.Restore:
				deps = deps[:0]
				// Double buffering: this restore may only start once the
				// buffer two restores back has been consumed.
				if len(restores) >= 2 {
					if c := restoreConsumer[len(restores)-2]; c != noTask {
						deps = append(deps, c)
					}
				}
				t := b.sim.AddTagged(dpStream, b.tRestore, des.ClassRestore, op.Stage, op.Micro, deps...)
				restoreIdx[op.Stage*(nm+1)+op.Micro+1] = len(restores)
				restores = append(restores, t)
				restoreConsumer = append(restoreConsumer, noTask)
			case schedule.Reduce:
				deps = deps[:0]
				if op.Micro >= 0 {
					if bt := bwdTask[key(op.Stage, op.Micro)]; bt != noTask {
						deps = append(deps, bt)
					}
				} else if bt := bwdTask[key(op.Stage, p.NumMicro-1)]; bt != noTask {
					// Per-batch reduce waits for the stage's last backward.
					deps = append(deps, bt)
				}
				t := b.sim.AddTagged(dpStream, b.tReduce, des.ClassReduce, op.Stage, op.Micro, deps...)
				reduces = append(reduces, t)
			case schedule.Optimize:
				b.sim.AddTagged(comp, b.tOpt, des.ClassOpt, -1, -1, reduces...)
			}
		}
	}

	// Hand the (possibly re-grown) append-mode buffers back to the pooled
	// scratch for the next simulation.
	sc.restores, sc.restoreConsumer, sc.reduces, sc.deps = restores, restoreConsumer, reduces, deps

	// Pass 2: wire cross-device transfer dependencies. The consuming op
	// waits on the transfer directly; an in-order compute stream therefore
	// blocks exactly like a synchronous receive. Index order makes the
	// wiring order deterministic (the timeline is order-independent anyway).
	for k, send := range fwdSend {
		if send == noTask {
			continue
		}
		if t := fwdTask[k]; t != noTask {
			b.sim.AddDep(t, send)
		}
	}
	for k, send := range bwdSend {
		if send == noTask {
			continue
		}
		if t := bwdTask[k]; t != noTask {
			b.sim.AddDep(t, send)
		}
	}
}

// transferOutOf returns the (stage, micro) key index of the op consuming
// this op's cross-device output, if any.
func (b *builder) transferOutOf(op schedule.Op) (int, bool) {
	if !b.p.Method.Pipelined() || b.p.PP == 1 {
		return 0, false
	}
	if op.Kind == schedule.Forward {
		if op.Stage < b.nStages-1 && b.p.StageDevice(op.Stage+1) != b.p.StageDevice(op.Stage) {
			return (op.Stage+1)*b.p.NumMicro + op.Micro, true
		}
		return 0, false
	}
	if op.Stage > 0 && b.p.StageDevice(op.Stage-1) != b.p.StageDevice(op.Stage) {
		return (op.Stage-1)*b.p.NumMicro + op.Micro, true
	}
	return 0, false
}

// deriveCosts computes the per-op durations from the hardware and model.
func (b *builder) deriveCosts() {
	b.nStages = b.p.NumStages()
	costs := DeriveCosts(b.c, b.m, b.p, b.par)
	b.tFwd, b.tBwd = costs.Fwd, costs.Bwd
	b.tTransfer, b.tPPStall = costs.Transfer, costs.PPStall
	b.tReduce, b.tRestore, b.tOpt = costs.Reduce, costs.Restore, costs.Opt
}

// DeriveCosts computes the per-operation durations the simulator charges a
// (cluster, model, plan) configuration, under the cost model selected by
// par.Model (nil selects the paper formulas). It is exported as the single
// cost producer shared with the analytic lower-bound evaluator
// (internal/analytic and the generators' Traits.StepLB hooks), which must
// price plans with exactly the simulator's costs to stay admissible — a
// guarantee that holds for every registered cost model, because both sides
// call this one function. The formulas themselves live in internal/cost.
func DeriveCosts(c hw.Cluster, m model.Transformer, p core.Plan, par Params) schedule.StepCosts {
	return cost.Derive(c, m, p, par)
}
