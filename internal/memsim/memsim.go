// Package memsim estimates per-GPU memory usage for a (model, plan) pair,
// following Appendix A.2 of the paper: training-state memory (Eqs. 13-15),
// live activation memory (Eq. 16) and activation-checkpoint memory (Eq. 17
// with the per-schedule caps of Table 4.1), plus pipeline receive buffers.
//
// Two totals are reported: the expected peak on the given cluster, and the
// minimum achievable on an arbitrarily large cluster where sharded data
// parallelism dilutes the training state completely (the "Memory min"
// column of Tables E.1-E.3).
//
// Fits is the one memory check: the grid search keeps a candidate when it
// holds and the engine reports Estimate. Nothing is memoized here; the
// one costly input, the V-schedule's exact in-flight peak, is recorded
// with its programs in the schedule memo cache.
package memsim

import (
	"fmt"

	"bfpp/internal/core"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// Bytes-per-parameter constants for mixed-precision Adam (Appendix A.2.1).
const (
	// bytesState is the training state proper: fp32 master weights (4) and
	// two Adam momenta (8).
	bytesState = 12.0
	// bytesHalfBuffers is the half-precision weight and gradient buffers
	// (2 + 2).
	bytesHalfBuffers = 4.0
	// bytesHalfWeights is the half-precision weights alone, for schedules
	// that reduce gradients immediately (per-stage aggregation).
	bytesHalfWeights = 2.0
	// bytesFP32Grads is the full-precision gradient buffer. The paper's
	// implementation pre-allocates it (counted in peak memory);
	// Megatron-LM allocates it on the fly outside the peak (Appendix E
	// footnote 15).
	bytesFP32Grads = 4.0
)

// Breakdown is the per-GPU memory estimate in bytes.
type Breakdown struct {
	// State is training state plus precision buffers on this cluster.
	State float64
	// StateMin is the same on an arbitrarily large cluster (sharding
	// dilutes the 12-byte state and, for our implementation, the fp32
	// gradients, leaving only the half-precision buffers).
	StateMin float64
	// Activations is the live activation + gradient memory of the layer
	// currently being processed (Eq. 16).
	Activations float64
	// Checkpoints is the activation-checkpoint memory (Eq. 17 with caps).
	Checkpoints float64
	// PPBuffers is the pipeline receive buffer memory (double-buffered).
	PPBuffers float64
}

// Total returns the expected peak usage on the given cluster.
func (b Breakdown) Total() float64 {
	return b.State + b.Activations + b.Checkpoints + b.PPBuffers
}

// TotalMin returns the large-cluster minimum (the "Memory min" column).
func (b Breakdown) TotalMin() float64 {
	return b.StateMin + b.Activations + b.Checkpoints + b.PPBuffers
}

// String formats both totals in GiB.
func (b Breakdown) String() string {
	const gib = 1 << 30
	return fmt.Sprintf("total=%.2fGiB (state=%.2f act=%.2f ckpt=%.2f pp=%.2f) min=%.2fGiB",
		b.Total()/gib, b.State/gib, b.Activations/gib, b.Checkpoints/gib,
		b.PPBuffers/gib, b.TotalMin()/gib)
}

// Estimate computes the memory breakdown. The plan must be valid for the
// model. The per-method behavior — the in-flight activation count of
// Table 4.1, per-stage gradient aggregation, the Megatron-LM fp32-grads
// accounting and PipeDream weight stashes — comes from the method's
// registered schedule traits (schedule.TraitsOf) rather than a hard-coded
// method list, so registered extension schedules are estimated correctly.
func Estimate(m model.Transformer, p core.Plan) Breakdown {
	traits := schedule.TraitsOf(p.Method)
	return estimate(m, p, traits, traits.InFlight(p))
}

// floor is a lower bound on Estimate(m, p).Total() that reads no
// registered trait: the estimate under the memory traits that minimize
// the training state (fp32 gradients outside the peak, per-stage
// aggregation, no weight stash), with Loops in-flight pairs, a lower
// bound on every generator's InFlight (see schedule.Traits). Each of its
// terms is at most Estimate's and the sum runs in Total's order, so it
// can never round above the estimate.
func floor(m model.Transformer, p core.Plan) float64 {
	least := schedule.Traits{GradsOutsidePeak: true, PerStageAggregation: true}
	return estimate(m, p, least, p.Loops).Total()
}

// estimate computes the memory breakdown under the given memory traits,
// with pairs (stage, micro-batch) activation checkpoints in flight on the
// worst device.
func estimate(m model.Transformer, p core.Plan, traits schedule.Traits, pairs int) Breakdown {
	var b Breakdown
	stackParams := float64(m.Layers) * float64(m.LayerParams())
	pDev := stackParams / float64(p.PP*p.TP) // parameters hosted per device
	nStages := p.NumStages()
	pStage := stackParams / float64(nStages) / float64(p.TP)

	// Training state (Eqs. 13-15).
	switch p.Sharding {
	case core.DP0:
		perParam := bytesState + bytesHalfBuffers + bytesFP32Grads
		if traits.GradsOutsidePeak {
			perParam = bytesState + bytesHalfBuffers // fp32 grads outside peak
		}
		b.State = perParam * pDev
		// Large-cluster minimum assumes sharding were enabled: only the
		// half-precision buffers remain.
		b.StateMin = bytesHalfBuffers * pDev
	case core.DPPS:
		buffers := bytesHalfBuffers
		if traits.PerStageAggregation || p.NumMicro == 1 {
			// Per-stage aggregation reduces gradients immediately,
			// halving the buffer requirement (Appendix A.2.1).
			buffers = bytesHalfWeights
		}
		b.State = (bytesState+bytesFP32Grads)/float64(p.DP)*pDev + buffers*pDev
		b.StateMin = buffers * pDev
	case core.DPFS:
		// Only two reconstructed stages are resident (double buffering).
		buffers := 2 * (bytesHalfWeights + bytesHalfWeights) * pStage
		b.State = (bytesState+bytesFP32Grads)/float64(p.DP)*pDev + buffers
		b.StateMin = buffers
	}
	if traits.StashedWeights != nil {
		// PipeDream-style weight stashing pins extra half-precision weight
		// versions per stage; they do not shard away on a larger cluster.
		stash := bytesHalfWeights * float64(traits.StashedWeights(p)) * pStage
		b.State += stash
		b.StateMin += stash
	}

	// Live activations (Eq. 16), for the micro-batch currently in the
	// layer being processed.
	seq := float64(m.SeqLen)
	smb := float64(p.MicroBatch)
	hid := float64(m.Hidden)
	tp := float64(p.TP)
	b.Activations = seq * smb * hid * (10 + 24/tp + 5*seq*float64(m.Heads)/(hid*tp))

	// Activation checkpoints (Eq. 17): one checkpoint (the layer input,
	// 2 bytes/element) per in-flight layer and micro-batch, with the
	// per-schedule caps of Table 4.1 declared by the generator traits.
	layersPerStage := m.Layers / nStages
	b.Checkpoints = float64(pairs*layersPerStage) * 2 * seq * smb * hid / tp

	// Pipeline receive buffers: double-buffered fp16 activations plus
	// gradients at stage boundaries.
	if p.Method.Pipelined() && p.PP > 1 {
		b.PPBuffers = 4 * 2 * seq * smb * hid / tp
	}
	return b
}

// Fits reports whether the plan's estimated peak fits in memBytes of GPU
// memory, keeping a fragmentation reserve (Appendix D.2 documents severe
// fragmentation effects; configurations near the limit were excluded from
// the paper's grid search). It checks floor first, which never exceeds
// the estimate, so a plan whose floor breaks the budget is rejected
// without consulting the generator's in-flight hook: for the V-schedule,
// the hook generates the plan's programs on a memo-cache miss.
func Fits(m model.Transformer, p core.Plan, memBytes int64) bool {
	const fragmentationReserve = 0.90
	limit := float64(memBytes) * fragmentationReserve
	return floor(m, p) <= limit && Estimate(m, p).Total() <= limit
}
