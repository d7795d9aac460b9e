package schedule

import (
	"fmt"
	"sync"

	"bfpp/internal/core"
)

// key identifies one (stage, micro-batch) pair (retained for error text).
type key struct{ stage, micro int }

// String renders a pair as the map-keyed Check used to.
func (k key) String() string { return fmt.Sprintf("{%d %d}", k.stage, k.micro) }

// checkScratch pools Check's per-(stage, micro) position tables. Check
// runs once per distinct schedule memo key the search prices or
// simulates (and per key the V-schedule's exact in-flight hook reads),
// and the flat tables (replacing the original per-device maps) keep it
// off the sweep's critical path.
type checkScratch struct {
	fwdSeen, bwdSeen       []uint8
	fwdPos, bwdPos         []int32
	lastBwd                []int32
	restoreMinB            []int32 // earliest per-batch restore per stage
	restoreMinM            []int32 // earliest per-micro restore per (stage, micro)
	reduceStage, reducePos []int32
}

var checkScratchPool = sync.Pool{New: func() any { return &checkScratch{} }}

// Check verifies the structural invariants every valid schedule must
// satisfy and returns the first violation. It is used by the test suite
// and by the engine as a guard before simulation:
//
//  1. Completeness: each (stage, micro-batch) pair has exactly one Forward
//     and one Backward, both on the stage's owner device.
//  2. Per-device causality: Forward(s,m) precedes Backward(s,m); for the
//     stages of one device, Forward(s,m) precedes Forward(s',m) when s < s'
//     and Backward ordering is reversed.
//  3. Restores precede the first use of their stage (and micro-batch, when
//     per-micro-batch) in the corresponding pass.
//  4. Reductions follow the last Backward of their stage (per-batch) or
//     their own micro-batch's Backward (per-micro-batch).
//  5. Exactly one Optimize per device, as the final operation, and after
//     every Reduce.
//
// Check is linear in the programs' length: each device touches only the
// (stage, micro-batch) rows of the stages it owns, since a compute op of
// any other stage is an error, and a restore or reduce that names another
// device's stage checks nothing on this device.
func Check(s *Schedule) error {
	p := s.Plan
	nStages := p.NumStages()
	nm := p.NumMicro
	nk := nStages * nm
	idx := func(stage, micro int) int { return stage*nm + micro }

	sc := checkScratchPool.Get().(*checkScratch)
	defer checkScratchPool.Put(sc)
	fwdSeen := growScratch(&sc.fwdSeen, nk)
	bwdSeen := growScratch(&sc.bwdSeen, nk)
	for i := 0; i < nk; i++ {
		fwdSeen[i], bwdSeen[i] = 0, 0
	}
	fwdPos := growScratch(&sc.fwdPos, nk)
	bwdPos := growScratch(&sc.bwdPos, nk)
	lastBwd := growScratch(&sc.lastBwd, nStages)
	restoreMinB := growScratch(&sc.restoreMinB, nStages)
	restoreMinM := growScratch(&sc.restoreMinM, nk)

	for r, prog := range s.Devices {
		// The device's own stages, in ascending order. A rank beyond the
		// pipeline (a malformed schedule) owns none.
		var stages []int
		if r < p.PP || !p.Method.Pipelined() {
			stages = p.DeviceStages(r)
		}
		for _, st := range stages {
			lastBwd[st], restoreMinB[st] = -1, -1
			for k := idx(st, 0); k < idx(st+1, 0); k++ {
				fwdPos[k], bwdPos[k], restoreMinM[k] = -1, -1, -1
			}
		}
		reduceStage := sc.reduceStage[:0]
		reducePos := sc.reducePos[:0]
		optPos := -1
		for i, op := range prog {
			switch op.Kind {
			case Forward, Backward:
				if op.Stage < 0 || op.Stage >= nStages {
					return fmt.Errorf("device %d op %d: stage %d out of range", r, i, op.Stage)
				}
				if op.Micro < 0 || op.Micro >= nm {
					return fmt.Errorf("device %d op %d: micro %d out of range", r, i, op.Micro)
				}
				owner := p.StageDevice(op.Stage)
				if owner != r {
					return fmt.Errorf("device %d op %v: stage owned by device %d", r, op, owner)
				}
				k := idx(op.Stage, op.Micro)
				if op.Kind == Forward {
					if fwdSeen[k] < 2 {
						fwdSeen[k]++ // saturate: != 1 is all completeness needs
					}
					fwdPos[k] = int32(i)
				} else {
					if bwdSeen[k] < 2 {
						bwdSeen[k]++
					}
					bwdPos[k] = int32(i)
					lastBwd[op.Stage] = int32(i)
				}
			case Restore:
				if op.Stage >= 0 && op.Stage < nStages && p.StageDevice(op.Stage) == r {
					if op.Micro == -1 {
						// Only the exact per-batch marker satisfies the
						// restore-before-use checks below; other negative
						// micros are junk keys the map-based Check also
						// never matched against a compute op.
						if restoreMinB[op.Stage] < 0 {
							restoreMinB[op.Stage] = int32(i)
						}
					} else if op.Micro >= 0 && op.Micro < nm {
						if k := idx(op.Stage, op.Micro); restoreMinM[k] < 0 {
							restoreMinM[k] = int32(i)
						}
					}
				}
			case Reduce:
				// Out-of-range reduce targets have no backward to validate
				// against (the map-keyed original silently tolerated them);
				// everything else is checked against bwdPos/lastBwd below,
				// with per-micro reduces encoded as nStages + pair index.
				if op.Stage >= 0 && op.Stage < nStages && op.Micro < nm && p.StageDevice(op.Stage) == r {
					enc := int32(op.Stage)
					if op.Micro >= 0 {
						enc = int32(idx(op.Stage, op.Micro) + nStages)
					}
					reduceStage = append(reduceStage, enc)
					reducePos = append(reducePos, int32(i))
				}
			case Optimize:
				if optPos >= 0 {
					return fmt.Errorf("device %d: multiple Optimize ops", r)
				}
				optPos = i
			default:
				return fmt.Errorf("device %d op %d: unknown kind %v", r, i, op.Kind)
			}
		}
		sc.reduceStage, sc.reducePos = reduceStage, reducePos

		// Causality within the device.
		for _, st := range stages {
			for k := idx(st, 0); k < idx(st+1, 0); k++ {
				fp, bp := fwdPos[k], bwdPos[k]
				if fp >= 0 && bp >= 0 && bp < fp {
					return fmt.Errorf("device %d: backward %v before forward", r, key{k / nm, k % nm})
				}
			}
		}
		for mb := 0; mb < nm; mb++ {
			for i := 1; i < len(stages); i++ {
				lo, hi := idx(stages[i-1], mb), idx(stages[i], mb)
				if fp, fp2 := fwdPos[hi], fwdPos[lo]; fp >= 0 && fp2 >= 0 && fp < fp2 {
					return fmt.Errorf("device %d: forward %v before %v", r, key{stages[i], mb}, key{stages[i-1], mb})
				}
				if bp, bp2 := bwdPos[lo], bwdPos[hi]; bp >= 0 && bp2 >= 0 && bp < bp2 {
					return fmt.Errorf("device %d: backward %v before %v", r, key{stages[i-1], mb}, key{stages[i], mb})
				}
			}
		}

		// A per-batch reduce (micro == -1) must follow the stage's last
		// backward; a per-micro-batch reduce must follow that micro-batch's
		// backward of the stage.
		for ri, enc := range reduceStage {
			pos := reducePos[ri]
			if int(enc) < nStages {
				if lb := lastBwd[enc]; lb >= 0 && pos < lb {
					return fmt.Errorf("device %d: reduce of stage %d at %d before last backward at %d",
						r, enc, pos, lb)
				}
			} else {
				k := int(enc) - nStages
				if bp := bwdPos[k]; bp >= 0 && pos < bp {
					return fmt.Errorf("device %d: reduce %v at %d before its backward at %d",
						r, key{k / nm, k % nm}, pos, bp)
				}
			}
		}

		// Restores precede first use: every compute op must see some
		// restore of its stage (per-batch, or matching its micro-batch)
		// earlier in the program when DP-FS is on.
		if p.Sharding == core.DPFS {
			hasRestoreBefore := func(k int, pos int32) bool {
				if m := restoreMinB[k/nm]; m >= 0 && m < pos {
					return true
				}
				if m := restoreMinM[k]; m >= 0 && m < pos {
					return true
				}
				return false
			}
			for _, st := range stages {
				for k := idx(st, 0); k < idx(st+1, 0); k++ {
					if fp := fwdPos[k]; fp >= 0 && !hasRestoreBefore(k, fp) {
						return fmt.Errorf("device %d: forward %v without preceding restore", r, key{k / nm, k % nm})
					}
					if bp := bwdPos[k]; bp >= 0 && !hasRestoreBefore(k, bp) {
						return fmt.Errorf("device %d: backward %v without preceding restore", r, key{k / nm, k % nm})
					}
				}
			}
		}

		// Optimize last.
		if optPos != len(prog)-1 {
			return fmt.Errorf("device %d: Optimize not final op (pos %d of %d)", r, optPos, len(prog))
		}
	}

	// Completeness across devices. fwdSeen/bwdSeen accumulate across the
	// device loop exactly like the original cross-device maps.
	for st := 0; st < nStages; st++ {
		for mb := 0; mb < nm; mb++ {
			k := idx(st, mb)
			if fwdSeen[k] != 1 {
				return fmt.Errorf("stage %d micro %d: %d forwards, want 1", st, mb, fwdSeen[k])
			}
			if bwdSeen[k] != 1 {
				return fmt.Errorf("stage %d micro %d: %d backwards, want 1", st, mb, bwdSeen[k])
			}
		}
	}
	return nil
}

// MaxInFlight returns, for one device, the maximum number of micro-batch
// activations held at once: the peak over the program of
// (#forwards issued - #backwards completed). This drives the activation
// checkpoint memory differences between the schedules (Table 4.1): GPipe
// and breadth-first hold N_mb * N_loop, 1F1B holds about PP - rank, and
// depth-first about PP * Loops in the worst device.
func MaxInFlight(prog Program) int {
	cur, peak := 0, 0
	for _, op := range prog {
		switch op.Kind {
		case Forward:
			cur++
			if cur > peak {
				peak = cur
			}
		case Backward:
			cur--
		}
	}
	return peak
}

// Counts summarizes a schedule's operation totals per kind, used by tests
// and by the network-volume accounting (paper Eqs. 20-29).
func Counts(s *Schedule) map[Kind]int {
	c := map[Kind]int{}
	for _, prog := range s.Devices {
		for _, op := range prog {
			c[op.Kind]++
		}
	}
	return c
}
