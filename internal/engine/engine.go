// Package engine simulates one training batch of a (cluster, model, plan)
// configuration by replaying the generated schedule on per-device
// in-order streams (schedule.Schedule.Replay): compute operations on the
// compute streams, pipeline-parallel transfers, data-parallel reductions
// and weight reconstructions, tensor-parallel all-reduce overheads and the
// optimizer step. It reports batch time, throughput (paper Eq. 11 over
// time), GPU utilization and an overhead breakdown, plus the memory
// estimate. The search's tier-2 price runs the same replay, so the two
// cannot drift apart.
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
// compare this path with an oracle that shares no code with the replay: a
// freshly generated schedule built into a task graph and run by the
// discrete-event reference executor (des.Sim.RunReference).
package engine

import (
	"errors"
	"fmt"
	"math"

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
	// CaptureTimeline retains the simulated timeline, every task's span
	// with its stream names, in the result.
	CaptureTimeline bool
	// Params overrides the calibration constants when non-zero.
	Params *Params
}

// Simulate runs one batch with default options.
func Simulate(c hw.Cluster, m model.Transformer, p core.Plan) (Result, error) {
	return SimulateOpts(c, m, p, Options{})
}

// check runs every validation that precedes the simulation — cluster and
// plan validity, the GPU budget, a registered generator for the method,
// and the derived costs — and returns the costs. It generates no device
// programs (bar checkCosts' op count for a cost near overflow). It is the
// single producer of SimulateOpts' errors before generation, so Precheck
// reports exactly what a simulation would, as long as the method's
// registered generator produces checked programs for every plan
// Plan.Validate accepts: only a generator bug could fail the simulation's
// generation after check passes. FuzzValidatedPlanGenerates in
// internal/schedule and TestEnumeratedPlansGenerate in internal/search
// check that rule.
func check(c hw.Cluster, m model.Transformer, p core.Plan, opt Options) (schedule.StepCosts, error) {
	if err := c.Validate(); err != nil {
		return schedule.StepCosts{}, err
	}
	if err := p.Validate(m); err != nil {
		return schedule.StepCosts{}, err
	}
	if p.GPUs() > c.NumGPUs() {
		return schedule.StepCosts{}, fmt.Errorf("engine: plan needs %d GPUs, cluster has %d", p.GPUs(), c.NumGPUs())
	}
	if _, ok := schedule.Lookup(p.Method); !ok {
		// A method registered in core alone: Generate reports the missing
		// generator before it could generate anything, the error a
		// simulation would get from the memo cache.
		_, err := schedule.Generate(p)
		return schedule.StepCosts{}, fmt.Errorf("engine: %w", err)
	}
	par := Defaults()
	if opt.Params != nil {
		par = *opt.Params
	}
	costs := DeriveCosts(c, m, p, par)
	if err := checkCosts(p, costs); err != nil {
		return schedule.StepCosts{}, err
	}
	return costs, nil
}

// ErrInvalidCosts matches (under errors.Is) the errors Precheck and
// SimulateOpts return when the cost model derives a duration the
// simulation cannot charge: NaN, infinite, negative, or large enough to
// overflow the batch time. The parameters behind it (a calibration
// profile, say) are the caller's input, not an engine fault.
var ErrInvalidCosts = errors.New("engine: invalid derived costs")

// costError is a checkCosts failure: its own message, matching
// ErrInvalidCosts.
type costError string

func (e costError) Error() string { return string(e) }

func (costError) Unwrap() error { return ErrInvalidCosts }

// checkCosts rejects a duration the simulation would charge that is not
// finite and non-negative: one of the seven StepCosts fields, or a
// transfer riding the compute stream, which pays the stall on top of its
// wire time. A cost model or calibration value that produces one (a NaN
// or infinite Params field, say) has no simulated time. Finite durations
// can still overflow the batch time, so it bounds that too: every op
// starts at 0 or at another op's end, so the makespan is at most the sum
// of the charged durations — at most the largest one times the op count
// of the checked programs, each op counted with its transfer. Only a
// largest duration within a factor 2^63 of the float64 range needs that
// count: below it, largest*2*ops stays finite for any int op count, so
// the programs are read (and generated, on a memo-cache miss) only then.
func checkCosts(p core.Plan, c schedule.StepCosts) error {
	transfer := c.Transfer
	if pp, _ := schedule.SideStreams(p); !pp {
		transfer += c.PPStall
	}
	for _, d := range [...]struct {
		name string
		v    float64
	}{{"fwd", c.Fwd}, {"bwd", c.Bwd}, {"transfer", c.Transfer}, {"pp stall", c.PPStall},
		{"reduce", c.Reduce}, {"restore", c.Restore}, {"opt", c.Opt}, {"charged transfer", transfer}} {
		if d.v < 0 || math.IsNaN(d.v) || math.IsInf(d.v, 0) {
			return costError(fmt.Sprintf("engine: invalid %s duration %v", d.name, d.v))
		}
	}
	largest := max(c.Fwd, c.Bwd, transfer, c.Reduce, c.Restore, c.Opt)
	if !math.IsInf(largest*0x1p63, 0) {
		return nil
	}
	s, err := schedule.Cached(p)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	ops := 0
	for _, prog := range s.Devices {
		ops += len(prog)
	}
	if math.IsInf(largest*float64(2*ops), 0) {
		return costError(fmt.Sprintf("engine: batch time overflows: %d ops of up to %v s each", ops, largest))
	}
	return nil
}

// Precheck returns the error SimulateOpts would return before generating
// the device programs — nil when the configuration simulates cleanly,
// given the rule check's doc states (every validated plan generates
// checked programs, and a checked schedule cannot stall the replay). The
// grid search uses it to surface per-candidate errors deterministically
// even for candidates the branch-and-bound never simulates. It generates
// no device programs unless a derived duration comes within a factor
// 2^63 of the float64 range (checkCosts then needs the op count), so a
// candidate the search prunes on its floor costs no generation. It takes
// the simulation's Options, whose Params the cost checks read.
func Precheck(c hw.Cluster, m model.Transformer, p core.Plan, opt Options) error {
	_, err := check(c, m, p, opt)
	return err
}

// SimulateOpts runs one batch of the configuration and returns the result.
func SimulateOpts(c hw.Cluster, m model.Transformer, p core.Plan, opt Options) (Result, error) {
	costs, err := check(c, m, p, opt)
	if err != nil {
		return Result{}, err
	}
	sched, err := schedule.Cached(p)
	if err != nil {
		return Result{}, fmt.Errorf("engine: %w", err)
	}
	tl, err := sched.Replay(costs)
	if err != nil {
		return Result{}, fmt.Errorf("engine: %w", err)
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
	// Each kind's busy time is its worst device's. The replay lays the
	// streams out kind by kind, device by device: the compute streams,
	// then the pp and dp streams where the plan has them.
	ppSide, dpSide := schedule.SideStreams(p)
	busy := [...]*float64{&res.ComputeTime, &res.PPCommTime, &res.DPCommTime}
	var sid des.StreamID
	for kind, on := range [...]bool{true, ppSide, dpSide} {
		for dev := 0; on && dev < len(sched.Devices); dev++ {
			if t := tl.BusyTime(sid); t > *busy[kind] {
				*busy[kind] = t
			}
			if opt.CaptureTimeline {
				tl.StreamNames = append(tl.StreamNames, streamName(kind, dev))
			}
			sid++
		}
	}
	if !ppSide {
		// Transfers rode the compute streams; account them by class.
		res.PPCommTime = tl.ClassTime(-1, des.ClassSend)
	}
	if !dpSide {
		res.DPCommTime = tl.ClassTime(-1, des.ClassReduce) + tl.ClassTime(-1, des.ClassRestore)
	}
	if opt.CaptureTimeline {
		res.Timeline = tl
	}
	return res, nil
}

var streamKinds = [...]string{"compute", "pp", "dp"}

// streamName names a device stream of a captured timeline: kind 0 is the
// compute stream, 1 the pp stream and 2 the dp stream.
func streamName(kind, dev int) string {
	return fmt.Sprintf("gpu%d/%s", dev, streamKinds[kind])
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
