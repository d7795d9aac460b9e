package schedule

import (
	"fmt"

	"bfpp/internal/core"
)

// This file holds the registered generators of the paper's seven methods,
// each a small struct over the shared program builder. Their Traits carry
// the family, overlap and memory-model metadata the search and memsim
// layers used to hard-code per method.

// allPairs is the in-flight hook of the forward-first schedules that hold
// every micro-batch of every local stage (GPipe, breadth-first and the
// Appendix C breadth-first accumulation — Table 4.1).
func allPairs(p core.Plan) int { return p.NumMicro * p.Loops }

// oneFOneBPairs caps the in-flight micro-batches at the 1F1B warmup depth.
func oneFOneBPairs(p core.Plan) int {
	if p.NumMicro < p.PP {
		return p.NumMicro
	}
	return p.PP
}

// sequencedPairs is the warmup depth 2(PP-1) + (Loops-1)*q + 1 of the
// sequenced (depth-first / hybrid) schedules, capped at the total.
func sequencedPairs(p core.Plan, q int) int {
	w := 2*(p.PP-1) + (p.Loops-1)*q + 1
	if t := p.NumMicro * p.Loops; w > t {
		w = t
	}
	return w
}

// gpipeGen: forward pass for all micro-batches, then backward pass
// (Figure 4a). One stage per device.
type gpipeGen struct{}

func (gpipeGen) Method() core.Method { return core.GPipe }

func (gpipeGen) Traits() Traits {
	return Traits{
		Family: "nl", FamilyName: "Non-looped (GPipe/1F1B)", Paper: true,
		Overlap:   true,
		Shardings: []core.Sharding{core.DP0, core.DPPS},
		InFlight:  allPairs,
		StepLB:    replayLB,
		StepFloor: forwardFirstFloor,
	}
}

func (gpipeGen) Generate(p core.Plan) (*Schedule, error) {
	return perDevice(p, func(b *progBuilder, r int) {
		for mb := 0; mb < p.NumMicro; mb++ {
			b.forward(r, mb)
		}
		for mb := 0; mb < p.NumMicro; mb++ {
			b.backward(r, mb)
		}
		b.bunchedReduces(r)
	}), nil
}

// oneFOneBGen: warmup of PP-rank-1 forwards, then strict one-forward /
// one-backward alternation, then a backward drain (Figure 4b).
type oneFOneBGen struct{}

func (oneFOneBGen) Method() core.Method { return core.OneFOneB }

func (oneFOneBGen) Traits() Traits {
	return Traits{
		Family: "nl", FamilyName: "Non-looped (GPipe/1F1B)", Paper: true,
		Shardings:        []core.Sharding{core.DP0},
		InFlight:         oneFOneBPairs,
		GradsOutsidePeak: true,
		StepLB:           replayLB,
	}
}

func (oneFOneBGen) Generate(p core.Plan) (*Schedule, error) {
	return perDevice(p, func(b *progBuilder, r int) {
		emitOneFOneB(b, r, p.NumMicro)
		b.bunchedReduces(r)
	}), nil
}

// emitOneFOneB emits the non-looped 1F1B compute program of one rank:
// warmup forwards, strict alternation, backward drain. Shared with the
// weight-stashing variant, whose batch data dependencies are identical.
func emitOneFOneB(b *progBuilder, r, numMicro int) {
	p := b.p
	warmup := p.PP - r - 1
	if warmup > numMicro {
		warmup = numMicro
	}
	for mb := 0; mb < warmup; mb++ {
		b.forward(r, mb)
	}
	for i := 0; i < numMicro-warmup; i++ {
		b.forward(r, warmup+i)
		b.backward(r, i)
	}
	for mb := numMicro - warmup; mb < numMicro; mb++ {
		b.backward(r, mb)
	}
}

// Sequenced unit-step helpers, shared by the depth-first schedule (the
// Megatron-LM interleaved schedule, sequence length q = PP) and the hybrid
// schedule of Section 4.2 (q > PP). Micro-batches are processed in groups
// of q; within a group the device runs its first local stage for all q
// micro-batches, then its second, and so on, prioritizing backward work
// once warmed up.
func seqStep(p core.Plan, q, k int, backward bool) (chunk, micro int) {
	group := k / (q * p.Loops)
	within := k % (q * p.Loops)
	chunk = within / q
	if backward {
		chunk = p.Loops - 1 - chunk
	}
	micro = group*q + within%q
	return chunk, micro
}

// genSequenced generates the depth-first family with micro-batch sequences
// of length q; q = PP is plain depth-first, larger q is the hybrid, whose
// extra in-flight micro-batches absorb transfer delays (Section 4.2).
// Warmup is 2*(PP-rank-1) + (Loops-1)*q unit forward steps, then
// alternating forward/backward unit steps, then a backward drain.
func genSequenced(p core.Plan, q int) *Schedule {
	total := p.NumMicro * p.Loops
	return perDevice(p, func(b *progBuilder, r int) {
		warmup := 2*(p.PP-r-1) + (p.Loops-1)*q
		if warmup > total {
			warmup = total
		}
		emitF := func(k int) {
			c, mb := seqStep(p, q, k, false)
			b.forward(c*p.PP+r, mb)
		}
		emitB := func(k int) {
			c, mb := seqStep(p, q, k, true)
			b.backward(c*p.PP+r, mb)
		}
		for k := 0; k < warmup; k++ {
			emitF(k)
		}
		for i := 0; i < total-warmup; i++ {
			emitF(warmup + i)
			emitB(i)
		}
		for k := total - warmup; k < total; k++ {
			emitB(k)
		}
		b.bunchedReduces(r)
	})
}

// depthFirstGen follows the Megatron-LM interleaved 1F1B structure
// (genSequenced with q = PP).
type depthFirstGen struct{}

func (depthFirstGen) Method() core.Method { return core.DepthFirst }

func (depthFirstGen) Traits() Traits {
	return Traits{
		Family: "df", FamilyName: "Depth-first (Megatron-LM)", Paper: true,
		Shardings:        []core.Sharding{core.DP0},
		InFlight:         func(p core.Plan) int { return sequencedPairs(p, p.PP) },
		GradsOutsidePeak: true,
		StepLB:           replayLB,
	}
}

func (depthFirstGen) Generate(p core.Plan) (*Schedule, error) {
	if p.NumMicro%p.PP != 0 {
		return nil, fmt.Errorf("schedule: depth-first needs NumMicro %% PP == 0")
	}
	return genSequenced(p, p.PP), nil
}

// hybridGen is the Section 4.2 depth/breadth hybrid (genSequenced with the
// plan's sequence length q >= PP).
type hybridGen struct{}

func (hybridGen) Method() core.Method { return core.Hybrid }

func (hybridGen) Traits() Traits {
	return Traits{
		Family: "hy", FamilyName: "Hybrid (Section 4.2)",
		Overlap:   true,
		Shardings: []core.Sharding{core.DP0},
		InFlight:  func(p core.Plan) int { return sequencedPairs(p, p.SequenceLen()) },
		KeyExtra:  core.Plan.SequenceLen,
		StepLB:    replayLB,
		// Section 4.2: micro-batch sequence lengths between N_PP (plain
		// depth-first ordering, Sequence zero) and N_mb (breadth-first-like).
		SequenceOptions: func(p core.Plan) []int {
			opts := []int{0}
			for q := 2 * p.PP; q <= p.NumMicro; q *= 2 {
				if p.NumMicro%q == 0 {
					opts = append(opts, q)
				}
			}
			return opts
		},
	}
}

func (hybridGen) Generate(p core.Plan) (*Schedule, error) {
	q := p.SequenceLen()
	if q%p.PP != 0 || p.NumMicro%q != 0 {
		return nil, fmt.Errorf("schedule: hybrid needs Sequence %% PP == 0 and NumMicro %% Sequence == 0")
	}
	return genSequenced(p, q), nil
}

// breadthFirstGen is the paper's schedule (Figure 4d): forward-first, each
// local stage processes the entire batch before the next stage starts, and
// the backward pass mirrors it in reverse. Data-parallel operations
// aggregate per stage: one restore before each pass's first use of a stage
// and one reduction after the stage's last backward, which is what makes
// the schedule compatible with DP-FS (Section 4.2).
type breadthFirstGen struct{}

func (breadthFirstGen) Method() core.Method { return core.BreadthFirst }

func (breadthFirstGen) Traits() Traits {
	return Traits{
		Family: "bf", FamilyName: "Breadth-first (ours)", Paper: true,
		Overlap:             true,
		Shardings:           []core.Sharding{core.DP0, core.DPFS},
		InFlight:            allPairs,
		PerStageAggregation: true,
		StepLB:              replayLB,
		StepFloor:           forwardFirstFloor,
	}
}

func (breadthFirstGen) Generate(p core.Plan) (*Schedule, error) {
	return perDevice(p, func(b *progBuilder, r int) {
		for l := 0; l < p.Loops; l++ {
			s := l*p.PP + r
			if b.fullySharded() {
				b.restore(s, -1)
			}
			for mb := 0; mb < p.NumMicro; mb++ {
				b.forward(s, mb)
			}
		}
		for l := p.Loops - 1; l >= 0; l-- {
			s := l*p.PP + r
			if b.fullySharded() {
				b.restore(s, -1)
			}
			for mb := 0; mb < p.NumMicro; mb++ {
				b.backward(s, mb)
			}
			if b.needReduce() {
				b.reduce(s, -1)
			}
		}
	}), nil
}

// noPipelineDFGen is conventional gradient accumulation (Figure 9a/9b):
// each micro-batch runs its full forward and backward before the next one.
// Under DP-FS every stage must be restored in both passes and reduced in
// the backward pass for every micro-batch — the repetition the paper's
// Eq. (24) penalizes.
type noPipelineDFGen struct{}

func (noPipelineDFGen) Method() core.Method { return core.NoPipelineDF }

func (noPipelineDFGen) Traits() Traits {
	return Traits{
		Family: "npdf", FamilyName: "No pipeline (depth-first accum)",
		Overlap:   true,
		Shardings: []core.Sharding{core.DP0, core.DPFS},
		// One micro-batch resident in each stage's worth of checkpoints.
		InFlight: func(p core.Plan) int { return p.Loops },
		StepLB:   replayLB,
	}
}

func (noPipelineDFGen) Generate(p core.Plan) (*Schedule, error) {
	stages := p.Loops // stage granularity on the single device
	return singleDevice(p, func(b *progBuilder) {
		fs := b.fullySharded()
		for mb := 0; mb < p.NumMicro; mb++ {
			for s := 0; s < stages; s++ {
				if fs {
					b.restore(s, mb)
				}
				b.forward(s, mb)
			}
			for s := stages - 1; s >= 0; s-- {
				if fs {
					b.restore(s, mb)
				}
				b.backward(s, mb)
				if fs && b.needReduce() {
					b.reduce(s, mb)
				}
			}
		}
		if !fs && b.needReduce() {
			for s := stages - 1; s >= 0; s-- {
				b.reduce(s, -1)
			}
		}
	}), nil
}

// noPipelineBFGen is the breadth-first gradient accumulation of Appendix C
// (Figure 9c/9d): stages are processed breadth-first across micro-batches,
// so each stage is restored once per pass and reduced once per batch, and
// the reduction overlaps the remaining backward work.
type noPipelineBFGen struct{}

func (noPipelineBFGen) Method() core.Method { return core.NoPipelineBF }

func (noPipelineBFGen) Traits() Traits {
	return Traits{
		Family: "np", FamilyName: "No pipeline (Sharded)", Paper: true,
		Overlap:             true,
		Shardings:           []core.Sharding{core.DP0, core.DPFS},
		InFlight:            allPairs,
		PerStageAggregation: true,
		StepLB:              replayLB,
	}
}

func (noPipelineBFGen) Generate(p core.Plan) (*Schedule, error) {
	stages := p.Loops
	return singleDevice(p, func(b *progBuilder) {
		fs := b.fullySharded()
		for s := 0; s < stages; s++ {
			if fs {
				b.restore(s, -1)
			}
			for mb := 0; mb < p.NumMicro; mb++ {
				b.forward(s, mb)
			}
		}
		for s := stages - 1; s >= 0; s-- {
			if fs {
				b.restore(s, -1)
			}
			for mb := 0; mb < p.NumMicro; mb++ {
				b.backward(s, mb)
			}
			if b.needReduce() {
				b.reduce(s, -1)
			}
		}
	}), nil
}
