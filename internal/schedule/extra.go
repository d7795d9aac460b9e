package schedule

import (
	"fmt"

	"bfpp/internal/core"
)

// This file holds the reproduction's two extension schedules, shipped
// through the registry as the proof of the pluggable-generator
// architecture: a PipeDream-style weight-stashing 1F1B (Harlap et al.,
// 2018) and the controllable-memory V-schedule (Qi et al., 2024). Their
// core metadata is registered in registry.go's init alongside the
// generators.

// weightStashGen is 1F1B with PipeDream-style weight stashing. Within one
// synchronous training batch the data dependencies are exactly 1F1B's
// (weight stashing relaxes weight-version dependencies, not activation
// dependencies), so the compute program matches the 1F1B generator. What
// stashing changes is the implementation profile: every in-flight
// micro-batch pins the half-precision weight version it was forwarded
// with (counted by the StashedWeights memory hook), and communication is
// not coupled to a pipeline flush, so the implementation overlaps data-
// and pipeline-parallel traffic with compute like the paper's runtime
// (Overlap trait) instead of paying Megatron-LM's blocking stalls.
type weightStashGen struct{}

func (weightStashGen) Method() core.Method { return core.WeightStash1F1B }

func (weightStashGen) Traits() Traits {
	return Traits{
		Family: "ws", FamilyName: "WS-1F1B (PipeDream)",
		Overlap:   true,
		Shardings: []core.Sharding{core.DP0},
		InFlight:  oneFOneBPairs,
		// One stashed copy per in-flight micro-batch beyond the current
		// weights.
		StashedWeights: func(p core.Plan) int { return oneFOneBPairs(p) - 1 },
		// The multi-stream replay prices the checked programs exactly,
		// overlapped communication included.
		StepLB: replayLB,
	}
}

func (weightStashGen) Generate(p core.Plan) (*Schedule, error) {
	return perDevice(p, func(b *progBuilder, r int) {
		emitOneFOneB(b, r, p.NumMicro)
		b.bunchedReduces(r)
	}), nil
}

// vCap returns the V-schedule's effective per-device in-flight cap in
// (stage, micro-batch) activation pairs: Plan.Sequence when set, else
// N_PP. A device needs at least Loops slots to carry one micro-batch
// through all of its local stages; explicit caps below that are rejected
// by the method's CheckPlan, and the default is floored here for deep
// loopings (Loops > PP).
func vCap(p core.Plan) int {
	c := p.Sequence
	if c <= 0 {
		c = p.PP
	}
	if c < p.Loops {
		c = p.Loops
	}
	return c
}

// vScheduleGen is the controllable-memory V-schedule. Stages are placed in
// the zigzag "V" pattern (core.PlacementVee): odd loops run in reverse
// device order, so each device hosts complementary early and late stages —
// device 0 owns both the first forward stage (longest-lived activations)
// and the last stage (where the backward pass begins), balancing activation
// lifetimes across devices, and the turnaround stages share a device so
// the apex transfer disappears.
//
// The program is built by deterministic greedy list scheduling over the
// stage dependency graph: each device runs ready backwards first (draining
// activation memory) and otherwise the lowest-(micro, stage) ready forward,
// subject to the in-flight cap vCap (the controllable-memory dial —
// smaller caps trade pipeline bubble for activation memory). To stay
// deadlock-free at any cap the op at the head of the serial
// micro-batch-major order is always cap-exempt, so the worst-device
// in-flight can exceed the cap by a few pairs; the memory-model hook
// reports the exact generated peak. Generate keeps each device's ready
// ops in heaps and its next op cached, so building a program costs
// O(ops * log PP).
type vScheduleGen struct{}

func (vScheduleGen) Method() core.Method { return core.VSchedule }

func (vScheduleGen) Traits() Traits {
	return Traits{
		Family: "v", FamilyName: "V-schedule (controllable mem)",
		Overlap:   true,
		Shardings: []core.Sharding{core.DP0},
		// The greedy construction may exceed the cap slightly where the
		// deadlock-freedom exemption fires; report the exact peak of the
		// generated programs.
		InFlight: func(p core.Plan) int {
			s, err := Cached(p)
			if err != nil {
				return p.NumMicro * p.Loops
			}
			worst := 0
			for _, prog := range s.Devices {
				if v := MaxInFlight(prog); v > worst {
					worst = v
				}
			}
			return worst
		},
		// The exact in-flight hook above generates programs; the floor is
		// the cheap admissible bound the search's memory pre-filter uses:
		// just before the first backward of the last stage, its device has
		// forwarded micro-batch 0 through all of its local stages and
		// retired nothing, so the worst device holds at least Loops pairs
		// whatever the cap.
		InFlightFloor: func(p core.Plan) int { return p.Loops },
		KeyExtra:      vCap,
		// No tier-2 hook: the search simulates every V-schedule candidate
		// its floor fails to prune. (The shared replay would price these
		// checked programs too; ROADMAP item 5 tracks registering it.) The
		// vee-placement warmup/drain floor (with its cap-aware term) is the
		// cheap tier-1 bound internal/analytic maximizes with the generic
		// floor.
		StepFloor: vScheduleFloor,
		// The controllable-memory dial (ROADMAP open item): enumerate a
		// small set of in-flight caps per grid point — the default (N_PP),
		// the deadlock floor (Loops, minimum activation memory), a midpoint
		// and a deeper 2*N_PP cap — deduplicated by effective cap so the
		// candidate list stays tight.
		SequenceOptions: func(p core.Plan) []int {
			base := p
			seen := map[int]bool{}
			var opts []int
			for _, s := range []int{0, p.Loops, (p.Loops + p.PP) / 2, 2 * p.PP} {
				if s > 0 && s < p.Loops {
					continue // rejected by the method's CheckPlan
				}
				base.Sequence = s
				eff := vCap(base)
				if seen[eff] {
					continue
				}
				seen[eff] = true
				opts = append(opts, s)
			}
			return opts
		},
	}
}

// vNext is a device's next op under the V-schedule's priority rule: its
// lowest ready backward, else its lowest ready forward when the device is
// under the in-flight cap or that forward is the serial head. Ready ops
// are ordered by key micro*nStages + stage, lowest first.
type vNext struct {
	ok       bool
	backward bool
	key      int
	start    float64 // when the op can start on the device
}

// heapPush adds key to the min-heap h.
func heapPush(h []int, key int) []int {
	h = append(h, key)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	return h
}

// heapPop removes the minimum of the min-heap h.
func heapPop(h []int) []int {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}

func (vScheduleGen) Generate(p core.Plan) (*Schedule, error) {
	nStages := p.Stages()
	nm := p.NumMicro
	nk := nStages * nm
	capPairs := vCap(p)

	// An op's key is micro*nStages + stage: backwards before forwards,
	// then lowest micro-batch, then lowest stage is the priority order.
	// fin holds finish times, forward at key and backward at nk+key; zero
	// means unscheduled (every op ends at 1 or later).
	fin := make([]float64, 2*nk)
	owner := make([]int, nStages)
	for s := range owner {
		owner[s] = p.StageDevice(s)
	}

	fwd := make([][]int, p.PP) // per-device ready forwards, min-heaps
	bwd := make([][]int, p.PP) // per-device ready backwards, min-heaps
	for m := 0; m < nm; m++ {
		fwd[owner[0]] = append(fwd[owner[0]], m*nStages) // ascending: a heap
	}
	free := make([]float64, p.PP) // per-device stream frontier
	inflight := make([]int, p.PP) // forwards issued minus backwards issued
	progs := make([]Program, p.PP)
	for d := range progs {
		// Each device runs a forward and a backward of every (local stage,
		// micro-batch) pair, then its reduces and the optimizer step.
		progs[d] = make(Program, 0, 2*p.Loops*nm+p.Loops+1)
	}

	// The serial micro-batch-major order (micro 0: F stages 0..n-1 then B
	// stages n-1..0, then micro 1, ...) is a valid topological order, so
	// its first unscheduled op, the head, is always ready and cap-exempt.
	// headFwd is the head's key when it is a forward, else -1, and
	// headDev its device. A ready forward of the head's micro-batch must
	// be the head itself, and every other ready forward has a later
	// micro-batch, so a forward head is always the top of its device's
	// forward heap.
	serial, total := 0, 2*nk
	headFwd, headDev := -1, -1
	// advanceHead moves the head past scheduled ops and reports whether
	// it moved.
	advanceHead := func() bool {
		from := serial
		for ; serial < total; serial++ {
			m, r := serial/(2*nStages), serial%(2*nStages)
			if r < nStages {
				if k := m*nStages + r; fin[k] == 0 {
					headFwd, headDev = k, owner[r]
					break
				}
			} else if st := 2*nStages - 1 - r; fin[nk+m*nStages+st] == 0 {
				headFwd, headDev = -1, owner[st]
				break
			}
		}
		return serial != from
	}

	// next caches each device's next op; a tournament tree over the
	// devices (leaves padded to a power of two) keeps the device whose op
	// starts earliest, the lowest device on ties, at tree[1].
	leaves := 1
	for leaves < p.PP {
		leaves *= 2
	}
	next := make([]vNext, leaves)
	tree := make([]int, 2*leaves)
	for i := range leaves {
		tree[leaves+i] = i
	}
	// match settles tree node i: its right child's device wins only when
	// its op starts strictly earlier than the left child's device's.
	match := func(i int) {
		l, r := tree[2*i], tree[2*i+1]
		if next[r].ok && (!next[l].ok || next[r].start < next[l].start) {
			tree[i] = r
		} else {
			tree[i] = l
		}
	}
	for i := leaves - 1; i >= 1; i-- {
		match(i)
	}
	refresh := func(d int) {
		n := vNext{ok: true}
		switch {
		case len(bwd[d]) > 0:
			n.backward, n.key = true, bwd[d][0]
		case len(fwd[d]) > 0 && (inflight[d] < capPairs || fwd[d][0] == headFwd):
			n.key = fwd[d][0]
		default:
			n.ok = false
		}
		if n.ok {
			// The latest finish among the op's dependencies.
			var dep float64
			if stage := n.key % nStages; !n.backward {
				if stage > 0 {
					dep = fin[n.key-1]
				}
			} else {
				dep = fin[n.key]
				if stage < nStages-1 {
					if t := fin[nk+n.key+1]; t > dep {
						dep = t
					}
				}
			}
			n.start = free[d]
			if dep > n.start {
				n.start = dep
			}
		}
		next[d] = n
		for i := (leaves + d) / 2; i >= 1; i /= 2 {
			match(i)
		}
	}
	advanceHead()
	refresh(owner[0])

	for scheduled := 0; scheduled < total; scheduled++ {
		d := tree[1]
		n := next[d]
		if !n.ok {
			// Unreachable: the serial head is always runnable on its device.
			return nil, fmt.Errorf("schedule: v-schedule stalled at cap %d (%d/%d ops)", capPairs, scheduled, total)
		}
		stage, micro := n.key%nStages, n.key/nStages
		recv := d // the device the newly ready op lands on
		if n.backward {
			end := n.start + 2.0 // backward (with recompute) roughly twice the forward
			bwd[d] = heapPop(bwd[d])
			fin[nk+n.key] = end
			free[d] = end
			inflight[d]--
			progs[d] = append(progs[d], Op{Backward, stage, micro})
			if stage > 0 {
				// F(stage-1, micro) finished long ago (it is upstream of
				// this backward), so B(stage-1, micro) is now ready.
				recv = owner[stage-1]
				bwd[recv] = heapPush(bwd[recv], n.key-1)
			}
		} else {
			end := n.start + 1.0 // forward unit time
			fwd[d] = heapPop(fwd[d])
			fin[n.key] = end
			free[d] = end
			inflight[d]++
			progs[d] = append(progs[d], Op{Forward, stage, micro})
			if stage < nStages-1 {
				recv = owner[stage+1]
				fwd[recv] = heapPush(fwd[recv], n.key+1)
			} else {
				bwd[d] = heapPush(bwd[d], n.key)
			}
		}
		// Only the scheduled device, the device that received the newly
		// ready op and, when the head moved (it moves only when it is
		// scheduled, on d), the new head's device can change their next
		// op; every other device's is unchanged.
		moved := advanceHead()
		refresh(d)
		if recv != d {
			refresh(recv)
		}
		if moved && serial < total && headDev != d && headDev != recv {
			refresh(headDev)
		}
	}

	for r := 0; r < p.PP; r++ {
		b := progBuilder{p: p, prog: progs[r]}
		b.bunchedReduces(r)
		progs[r] = b.finish()
	}
	// No self-check here: every caller (Cached, the engine's uncached
	// path, the runtime, the tests) runs schedule.Check on the result.
	return &Schedule{Plan: p, Devices: progs}, nil
}
