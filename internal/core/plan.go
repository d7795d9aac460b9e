// Package core defines the distributed-training configuration at the heart
// of the paper: the parallelism Plan combining data parallelism (optionally
// partially or fully sharded), pipeline parallelism with a looping layer
// placement, and tensor parallelism, together with the batch-size algebra of
// Section 3 (beta, beta_min, micro-batch structure).
package core

import (
	"fmt"
	"math"

	"bfpp/internal/model"
)

// Sharding selects the data-parallel state-sharding mode (Section 3.1).
type Sharding int

const (
	// DP0 is original data parallelism: the whole training state is
	// replicated on every device and gradients are all-reduced.
	DP0 Sharding = iota
	// DPPS is partially sharded data parallelism (ZeRO stage 2): each
	// device optimizes a shard of the weights; gradients are
	// reduce-scattered and updated weights all-gathered.
	DPPS
	// DPFS is fully sharded data parallelism (ZeRO stage 3): layers are
	// reconstructed before every use in both passes.
	DPFS
)

// String returns the paper's name for the sharding mode.
func (s Sharding) String() string {
	switch s {
	case DP0:
		return "DP0"
	case DPPS:
		return "DP-PS"
	case DPFS:
		return "DP-FS"
	default:
		return fmt.Sprintf("Sharding(%d)", int(s))
	}
}

// Plan is a complete distributed-training configuration: the (up to)
// three-dimensional device grid N_DP x N_PP x N_TP, the micro-batch
// structure, the looping factor and the sharding and overlap traits.
type Plan struct {
	// Method is the pipeline schedule.
	Method Method
	// DP, PP, TP are the data-, pipeline- and tensor-parallel group sizes.
	DP, PP, TP int
	// MicroBatch is the micro-batch size S_mb.
	MicroBatch int
	// NumMicro is the number of sequential micro-batches N_mb.
	NumMicro int
	// Loops is the number of pipeline loops N_loop = N_stage / N_PP.
	// It must be 1 for non-looped methods.
	Loops int
	// Sharding is the data-parallel sharding mode.
	Sharding Sharding
	// OverlapDP indicates the implementation overlaps data-parallel
	// network operations with compute. The paper's implementation does;
	// Megatron-LM (the 1F1B and depth-first baseline) does not.
	OverlapDP bool
	// OverlapPP likewise for pipeline-parallel transfers.
	OverlapPP bool
	// Sequence is the schedule's tunable parameter, interpreted per
	// method: the micro-batch sequence length of the Hybrid schedule (a
	// multiple of PP dividing NumMicro; zero defaults to PP, the plain
	// depth-first ordering), or the per-device in-flight micro-batch cap
	// of the V-schedule (zero defaults to PP). Other methods ignore it.
	Sequence int
}

// GPUs returns the total device count N_GPU = N_DP * N_PP * N_TP.
func (p Plan) GPUs() int { return p.DP * p.PP * p.TP }

// Stages returns the total stage count N_stage = N_PP * N_loop.
func (p Plan) Stages() int { return p.PP * p.Loops }

// NumStages returns the number of stages the model is split into for this
// plan: Stages() for pipelined methods, and Loops for the no-pipeline
// schedules (whose "loops" only set the gradient-accumulation stage
// granularity on the single device).
func (p Plan) NumStages() int {
	if !p.Method.Pipelined() {
		return p.Loops
	}
	return p.Stages()
}

// BatchSize returns the global batch size B = N_DP * N_mb * S_mb.
func (p Plan) BatchSize() int { return p.DP * p.NumMicro * p.MicroBatch }

// BatchPerGPU returns beta = B / N_GPU.
func (p Plan) BatchPerGPU() float64 {
	return float64(p.BatchSize()) / float64(p.GPUs())
}

// BetaMin returns the minimum batch size per GPU for this grid,
// beta_min = 1/N_TP (Section 3.3).
func (p Plan) BetaMin() float64 { return 1 / float64(p.TP) }

// Bubble returns the pipeline-bubble overhead fraction of Eq. (9):
// (N_PP - 1) / (N_mb * N_loop). Non-pipelined plans have no bubble.
func (p Plan) Bubble() float64 {
	if !p.Method.Pipelined() {
		return 0
	}
	return float64(p.PP-1) / (float64(p.NumMicro) * float64(p.Loops))
}

// MaxComputeOps caps a valid plan's compute-op count, 2*NumStages*NumMicro
// (a forward and a backward per stage and micro-batch), which sets the
// size of its device programs. It is 16 times the largest count the
// shipped grids enumerate and FuzzValidatedPlanGenerates reaches,
// 2*256*512, so a request cannot make the schedule generator build
// billions of ops.
const MaxComputeOps = 1 << 22

// Validate checks the plan against a model architecture.
func (p Plan) Validate(m model.Transformer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	switch {
	case p.DP <= 0 || p.PP <= 0 || p.TP <= 0:
		return fmt.Errorf("plan: group sizes must be positive (DP=%d PP=%d TP=%d)", p.DP, p.PP, p.TP)
	case p.MicroBatch <= 0:
		return fmt.Errorf("plan: MicroBatch must be positive, got %d", p.MicroBatch)
	case p.NumMicro <= 0:
		return fmt.Errorf("plan: NumMicro must be positive, got %d", p.NumMicro)
	case p.Loops <= 0:
		return fmt.Errorf("plan: Loops must be positive, got %d", p.Loops)
	case overflows(p.DP, p.PP, p.TP):
		return fmt.Errorf("plan: GPU count DP*PP*TP (%d*%d*%d) overflows int", p.DP, p.PP, p.TP)
	case overflows(p.DP, p.NumMicro, p.MicroBatch):
		return fmt.Errorf("plan: batch size DP*NumMicro*MicroBatch (%d*%d*%d) overflows int", p.DP, p.NumMicro, p.MicroBatch)
	case overflows(p.PP, p.Loops):
		return fmt.Errorf("plan: stage count PP*Loops (%d*%d) overflows int", p.PP, p.Loops)
	case overflows(2, p.NumStages(), p.NumMicro) || 2*p.NumStages()*p.NumMicro > MaxComputeOps:
		return fmt.Errorf("plan: %d stages and %d micro-batches exceed %d compute ops", p.NumStages(), p.NumMicro, MaxComputeOps)
	}
	info, ok := p.Method.Info()
	if !ok {
		return fmt.Errorf("plan: unregistered method %v", p.Method)
	}
	if !info.Pipelined && p.PP != 1 {
		return fmt.Errorf("plan: %v requires PP=1, got %d", p.Method, p.PP)
	}
	if !info.Looped && info.Pipelined && p.Loops != 1 {
		return fmt.Errorf("plan: %v is non-looped but Loops=%d", p.Method, p.Loops)
	}
	if info.Pipelined && p.NumMicro < p.PP {
		return fmt.Errorf("plan: pipeline needs NumMicro >= PP (%d < %d)", p.NumMicro, p.PP)
	}
	if info.CheckPlan != nil {
		if err := info.CheckPlan(p); err != nil {
			return err
		}
	}
	if m.Layers%p.NumStages() != 0 {
		return fmt.Errorf("plan: %d layers not divisible into %d stages", m.Layers, p.NumStages())
	}
	switch p.Sharding {
	case DP0, DPPS:
	case DPFS:
		if p.DP == 1 {
			return fmt.Errorf("plan: DP-FS requires DP > 1")
		}
	default:
		// The memory model and the generators know only the three modes;
		// any other value would price as no training state at all.
		return fmt.Errorf("plan: unknown sharding %v", p.Sharding)
	}
	if info.CheckSharding != nil {
		if err := info.CheckSharding(p); err != nil {
			return err
		}
	}
	return nil
}

// overflows reports whether the product of positive ints overflows int.
func overflows(xs ...int) bool {
	n := 1
	for _, x := range xs {
		if n > math.MaxInt/x {
			return true
		}
		n *= x
	}
	return false
}

// SequenceLen returns the hybrid schedule's effective micro-batch sequence
// length (PP when unset).
func (p Plan) SequenceLen() int {
	if p.Sequence <= 0 {
		return p.PP
	}
	return p.Sequence
}

// LayersPerStage returns the number of transformer layers in each stage.
func (p Plan) LayersPerStage(m model.Transformer) int {
	return m.Layers / p.NumStages()
}

// StageDevice returns the pipeline rank hosting the given global stage
// index, following the method's registered placement. The looping wrap
// placement (Figure 3b) assigns stage s to device s mod N_PP, wrapping the
// stages around the ring; with Loops == 1 this reduces to the standard
// placement (Figure 3a) of one stage per device. The zigzag "V" placement
// reverses direction on odd loops.
func (p Plan) StageDevice(stage int) int {
	if !p.Method.Pipelined() {
		return 0
	}
	r := stage % p.PP
	if p.Method.Placement() == PlacementVee && (stage/p.PP)%2 == 1 {
		return p.PP - 1 - r
	}
	return r
}

// DeviceStages returns the global stage indices hosted by a pipeline rank in
// execution order (loop by loop), under the method's placement.
func (p Plan) DeviceStages(rank int) []int {
	if !p.Method.Pipelined() {
		if rank != 0 {
			return nil
		}
		stages := make([]int, p.Loops)
		for i := range stages {
			stages[i] = i
		}
		return stages
	}
	vee := p.Method.Placement() == PlacementVee
	stages := make([]int, 0, p.Loops)
	for l := 0; l < p.Loops; l++ {
		r := rank
		if vee && l%2 == 1 {
			r = p.PP - 1 - rank
		}
		stages = append(stages, l*p.PP+r)
	}
	return stages
}

// StageLayers returns the half-open interval [lo, hi) of layer indices in
// the given global stage.
func (p Plan) StageLayers(m model.Transformer, stage int) (lo, hi int) {
	per := p.LayersPerStage(m)
	return stage * per, (stage + 1) * per
}

// String returns a compact description like
// "Breadth-first DP=4 PP=8 TP=2 Smb=1 Nmb=12 Nloop=8 DP-FS".
func (p Plan) String() string {
	s := fmt.Sprintf("%v DP=%d PP=%d TP=%d Smb=%d Nmb=%d Nloop=%d %v",
		p.Method, p.DP, p.PP, p.TP, p.MicroBatch, p.NumMicro, p.Loops, p.Sharding)
	return s
}
