// Package schedule generates the per-device operation programs of the
// pipeline schedules compared in the paper (Section 4.1, Figures 4 and 9)
// and of the reproduction's extension schedules.
//
// # Architecture
//
// Schedule generation is organized as a registry of pluggable generators:
//
//   - core.RegisterMethod publishes a method's static metadata (name,
//     looped/pipelined/forward-first traits, stage placement, plan
//     constraints) to internal/core, where Plan.Validate and the stage
//     placement helpers consume it.
//   - Register publishes a Generator — the object that builds the device
//     programs — together with its Traits: search-family membership,
//     implementation overlap, the sharding modes to enumerate, and the
//     memory-model hooks memsim consumes (in-flight activation pairs,
//     per-stage aggregation, weight stashing).
//   - Generate dispatches a plan to its registered generator; Cached
//     memoizes generation and invariant checking per program-determining
//     key (including each generator's KeyExtra parameter).
//   - The search layer (internal/search) derives its Figure 7 method
//     families from the registry instead of a hard-coded list, so a new
//     schedule becomes searchable by registering it here.
//
// All generators are written on top of the shared program builder
// (progBuilder), which owns the op encoding and the recurring
// data-parallel patterns. See ROADMAP.md ("Adding a new schedule") for
// the end-to-end recipe.
//
// # Registered schedules
//
//   - GPipe: non-looped, forward-first (Huang et al., 2018)
//   - 1F1B: non-looped, backward-priority (Harlap et al., 2018)
//   - Depth-first: looped, micro-batches in sequences of N_PP with backward
//     priority — the Megatron-LM interleaved schedule (Narayanan et al., 2021)
//   - Breadth-first: looped, all micro-batches through each local stage,
//     forward-first — the paper's contribution
//   - No-pipeline depth-first and breadth-first gradient accumulation
//     (Appendix C)
//   - Hybrid: the depth/breadth hybrid conjectured in Section 4.2, with a
//     configurable micro-batch sequence length (an extension of this
//     reproduction)
//   - WS-1F1B: 1F1B with PipeDream-style weight stashing (Harlap et al.,
//     2018) — overlapped communication, stashed weight versions (extension)
//   - V-schedule: the controllable-memory V-schedule (Qi et al., 2024) —
//     zigzag stage placement with a tunable in-flight cap (extension)
//
// A program is a flat list of operations in issue order. Compute operations
// (Forward, Backward) run on the device's compute stream; data-parallel
// operations (Restore, Reduce) run on the DP network stream when the
// implementation overlaps them, or inline on the compute stream otherwise.
// The replay (stepbound.go) executes programs on those streams, inserting
// the pipeline-parallel transfers implied by stage adjacency: it prices
// plans for the search and, through Schedule.Replay, is the engine's
// simulator.
package schedule

import (
	"fmt"

	"bfpp/internal/core"
)

// Kind enumerates program operation types.
type Kind int

const (
	// Forward is the forward pass of one stage for one micro-batch.
	Forward Kind = iota
	// Backward is the backward pass (including the activation-checkpoint
	// recompute) of one stage for one micro-batch.
	Backward
	// Restore reconstructs (all-gathers) a stage's weights under DP-FS.
	// Micro is -1 when the restore covers the whole batch (breadth-first
	// aggregation) and a micro-batch index when repeated per micro-batch.
	Restore
	// Reduce reduces a stage's gradients across the data-parallel group
	// (all-reduce under DP0, reduce-scatter under DP-PS/DP-FS). Micro is -1
	// for a per-batch reduction and a micro-batch index when repeated.
	Reduce
	// Optimize is the optimizer step for the device's (shard of the)
	// training state; exactly one per device, after all reductions.
	Optimize
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case Forward:
		return "F"
	case Backward:
		return "B"
	case Restore:
		return "W"
	case Reduce:
		return "G"
	case Optimize:
		return "S"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one operation in a device program.
type Op struct {
	// Kind is the operation type.
	Kind Kind
	// Stage is the global stage index (-1 for Optimize).
	Stage int
	// Micro is the micro-batch index, or -1 for per-stage/per-batch ops.
	Micro int
}

// String renders like "F3.2" (forward, stage 3, micro-batch 2) or "G1".
func (o Op) String() string {
	if o.Micro < 0 {
		if o.Stage < 0 {
			return o.Kind.String()
		}
		return fmt.Sprintf("%v%d", o.Kind, o.Stage)
	}
	return fmt.Sprintf("%v%d.%d", o.Kind, o.Stage, o.Micro)
}

// Program is the ordered operation list of one pipeline device.
type Program []Op

// Schedule is the full set of per-device programs for one pipeline-parallel
// group (every data-parallel replica executes the same programs).
type Schedule struct {
	// Plan is the configuration the schedule was generated for.
	Plan core.Plan
	// Devices holds one program per pipeline rank (length Plan.PP, or 1
	// for the no-pipeline methods).
	Devices []Program
}

// Generate builds the schedule for the plan's method by dispatching to the
// registered generator. The plan must already be valid for the target
// model; Generate only checks structural fields it depends on.
func Generate(p core.Plan) (*Schedule, error) {
	if p.PP <= 0 || p.NumMicro <= 0 || p.Loops <= 0 {
		return nil, fmt.Errorf("schedule: invalid plan %v", p)
	}
	if p.Method.Pipelined() && p.NumMicro < p.PP {
		return nil, fmt.Errorf("schedule: pipeline needs NumMicro >= PP (%d < %d)", p.NumMicro, p.PP)
	}
	g, ok := Lookup(p.Method)
	if !ok {
		return nil, fmt.Errorf("schedule: no generator registered for method %v (register one with schedule.Register)", p.Method)
	}
	return g.Generate(p)
}

// needReduce reports whether the plan requires gradient reductions.
func needReduce(p core.Plan) bool { return p.DP > 1 }
