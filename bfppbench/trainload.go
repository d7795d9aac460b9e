package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"bfpp/internal/collective"
	"bfpp/internal/core"
	bfruntime "bfpp/internal/runtime"
	"bfpp/internal/schedule"
	"bfpp/internal/tensor"
)

// trainNet is the train-step toy network: eight residual MLP blocks, sized
// so one pipelined step of trainPlan takes tens of milliseconds.
var trainNet = bfruntime.NetConfig{Layers: 8, Dim: 64, Hidden: 256}

const (
	trainWarmSteps  = 16  // untimed steps that end each setup
	trainSetups     = 9   // setups per run; setup_s is their median
	trainTraceSteps = 100 // steps of the traced run
	trainHitEvery   = 4   // every fourth step re-feeds a recent batch
	// lossTolerance is the runtime's own data-parallel equivalence
	// tolerance: a pipelined, sharded step and the single-device step on
	// the same batch agree to it.
	lossTolerance = 1e-9
)

// trainPlan is the paper's combination: the breadth-first schedule with
// fully sharded data parallelism, PP=2 and DP=2, two loops and 2·PP
// micro-batches.
func trainPlan() core.Plan {
	return core.Plan{Method: core.BreadthFirst, DP: 2, PP: 2, TP: 1, MicroBatch: 4, NumMicro: 4,
		Loops: 2, Sharding: core.DPFS, OverlapDP: true, OverlapPP: true}
}

// singlePlan is the single-device reference for a plan: the same batch as
// one replica accumulating every micro-batch depth-first.
func singlePlan(p core.Plan) core.Plan {
	return core.Plan{Method: core.NoPipelineDF, DP: 1, PP: 1, TP: 1, MicroBatch: p.MicroBatch,
		NumMicro: p.DP * p.NumMicro, Loops: 1, Sharding: core.DP0, OverlapDP: true, OverlapPP: true}
}

// batch is one step's inputs and targets.
type batch struct{ in, tgt tensor.Matrix }

// batchStream generates the seeded batches, one per step, in order.
type batchStream struct {
	rng       *rand.Rand
	rows, dim int
}

func (s *batchStream) next() batch {
	b := batch{tensor.New(s.rows, s.dim), tensor.New(s.rows, s.dim)}
	b.in.RandInit(s.rng, 1)
	b.tgt.RandInit(s.rng, 1)
	return b
}

// trainFeed is the loop's op sequence: fresh batches from the stream,
// except that every trainHitEvery-th step is a hit, re-feeding one of the last
// hitWindow fresh batches. The runtime keeps no cache, so a hit costs a
// full step. Only the hit window is kept, so the benchmark's memory does
// not grow with the number of steps; a second feed from the same seed
// yields the same sequence for the replay.
type trainFeed struct {
	stream *batchStream
	rng    *rand.Rand
	recent []batch
	n      int
}

func (f *trainFeed) next() (b batch, hit bool) {
	f.n++
	if f.n%trainHitEvery == 0 {
		return f.recent[f.rng.Intn(len(f.recent))], true
	}
	b = f.stream.next()
	if len(f.recent) == hitWindow {
		f.recent = append(f.recent[:0], f.recent[1:]...)
	}
	f.recent = append(f.recent, b)
	return b, false
}

// trainSetup builds a trainer for the plan and runs the warm steps.
func trainSetup(net bfruntime.NetConfig, plan core.Plan, warm []batch) (*bfruntime.Trainer, error) {
	tr, err := bfruntime.NewTrainer(net, plan, bfruntime.DefaultAdam())
	if err != nil {
		return nil, err
	}
	for _, b := range warm {
		if _, err := tr.Step(b.in, b.tgt); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// trainInputs returns the network, the plan, the warm batches and the
// loop's feed of a seed.
func trainInputs(seed int64) (bfruntime.NetConfig, core.Plan, []batch, *trainFeed) {
	net := trainNet
	net.Seed = seed
	plan := trainPlan()
	stream := &batchStream{rng: rand.New(rand.NewSource(seed)), rows: plan.BatchSize(), dim: net.Dim}
	warm := make([]batch, trainWarmSteps)
	for i := range warm {
		warm[i] = stream.next()
	}
	return net, plan, warm, &trainFeed{stream: stream, rng: rand.New(rand.NewSource(seed + 1))}
}

// runTrain runs train-step: set the trainer up several times (setup_s),
// step it through the seeded feed for the loop, then replay every batch on
// a single-device trainer and require each step's loss to match.
func runTrain(ctx context.Context, cfg config) (outcome, error) {
	if cfg.trace {
		return traceTrain(ctx, cfg)
	}
	out := outcome{values: map[string]float64{}}
	net, plan, warm, feed := trainInputs(cfg.seed)
	var tr *bfruntime.Trainer
	var setups []float64
	for i := 0; i < trainSetups; i++ {
		t0 := time.Now()
		var err error
		if tr, err = trainSetup(net, plan, warm); err != nil {
			return out, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.values["setup_s"] = median(setups)
	out.note("setup_s: %d setups %v", len(setups), setups)

	var losses []float64
	var lat, hits samples
	loop := startLoop(cfg.seconds)
	for !loop.over(len(lat), len(hits)) && ctx.Err() == nil {
		b, hit := feed.next()
		t0 := time.Now()
		loss, err := tr.Step(b.in, b.tgt)
		if hit {
			hits.add(time.Since(t0))
		} else {
			lat.add(time.Since(t0))
		}
		if err != nil {
			loss = math.NaN()
		}
		losses = append(losses, loss)
	}
	elapsed := loop.end(&out)
	if err := ctx.Err(); err != nil {
		return out, err
	}
	out.values["throughput_ops"] = float64(len(losses)) / elapsed.Seconds()
	out.note("loop: %d steps (%d repeated batches) in %.3fs", len(losses), len(hits), elapsed.Seconds())
	if err := latencyMetrics(&out, "latency", lat); err != nil {
		return out, err
	}
	if err := latencyMetrics(&out, "hit_latency", hits); err != nil {
		return out, err
	}
	var err error
	if out.values["rss_peak_mb"], err = peakRSSMB(0); err != nil {
		return out, err
	}
	out.attempted = len(losses)
	out.failed, err = checkLosses(cfg.seed, losses, nil)
	return out, err
}

// checkLosses replays a seed's warm batches and then its feed on a
// single-device trainer and counts the steps whose loss differs from the
// pipelined one by more than lossTolerance. Each replayed step is a span
// of tr, which may be nil.
func checkLosses(seed int64, losses []float64, tr *tracer) (int, error) {
	net, plan, warm, feed := trainInputs(seed)
	ref, err := trainSetup(net, singlePlan(plan), warm)
	if err != nil {
		return 0, err
	}
	failed := 0
	for i, pipelined := range losses {
		b, _ := feed.next()
		sp := tr.begin("runtime.Step/single", i, -1)
		want, err := ref.Step(b.in, b.tgt)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("single-device replay step %d: %w", i, err)
		}
		if !(math.Abs(pipelined-want) <= lossTolerance) {
			failed++
		}
	}
	return failed, nil
}

// traceTrain is the traced run of train-step: a fixed number of pipelined
// steps and their single-device replays under spans, then the layers the
// step is made of timed at the step's own sizes.
func traceTrain(ctx context.Context, cfg config) (outcome, error) {
	out := outcome{values: map[string]float64{}, layers: map[string]bool{
		"runtime": true, "tensor": true, "collective": true, "process": true,
	}}
	net, plan, warm, feed := trainInputs(cfg.seed)
	t0 := time.Now()
	trainer, err := trainSetup(net, plan, warm)
	if err != nil {
		return out, err
	}
	setup := time.Since(t0)

	tr := newTracer()
	losses := make([]float64, trainTraceSteps)
	var lat samples
	md := startMem()
	start := time.Now()
	for i := range losses {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		b, _ := feed.next()
		sp := tr.begin("runtime.Step", i, -1)
		loss, err := trainer.Step(b.in, b.tgt)
		lat.add(tr.end(sp))
		if err != nil {
			loss = math.NaN()
		}
		losses[i] = loss
	}
	elapsed := time.Since(start)
	mallocs, bytes, pause := md.stop()
	out.attempted = len(losses)
	if out.failed, err = checkLosses(cfg.seed, losses, tr); err != nil {
		return out, err
	}

	sched, err := schedule.Generate(plan)
	if err != nil {
		return out, err
	}
	counts := schedule.Counts(sched)
	var ops int
	for _, n := range counts {
		ops += n
	}
	// Every data-parallel replica runs its pipeline rank's program.
	ops *= plan.DP

	gflops := timeMatMul(tr, plan.MicroBatch, net.Dim, net.Hidden)
	flopsPerStep := 16 * float64(net.Dim*net.Hidden*net.Layers*plan.BatchSize())

	stageParams := net.Layers / (plan.PP * plan.Loops) * (2*net.Dim*net.Hidden + net.Hidden + net.Dim)
	rs, ag := timeCollectives(tr, plan.DP, stageParams)
	t := tr.totals()
	v := out.values
	v["runtime.step_ms"] = t["runtime.Step"].meanMS()
	v["runtime.single_step_ms"] = t["runtime.Step/single"].meanMS()
	v["runtime.speedup"] = v["runtime.single_step_ms"] / v["runtime.step_ms"]
	v["runtime.ops"] = float64(ops)
	v["runtime.step_allocs"] = float64(mallocs) / float64(len(losses))
	v["tensor.matmul_gflops"] = gflops
	v["tensor.busy_ms"] = flopsPerStep / (gflops * 1e9) * 1e3
	// Each Reduce and Restore op moves one stage's parameters through its
	// replica's collective: 8-byte floats, on every replica.
	nColl := counts[schedule.Reduce] + counts[schedule.Restore]
	v["collective.bytes"] = float64(nColl * plan.DP * stageParams * 8)
	v["collective.busy_ms"] = (float64(counts[schedule.Reduce])*rs + float64(counts[schedule.Restore])*ag) / 1e3
	v["process.alloc_mb_per_op"] = float64(bytes) / (1 << 20) / float64(len(losses))
	v["process.gc_pause_ms_per_op"] = float64(pause.Nanoseconds()) / 1e6 / float64(len(losses))

	path := filepath.Join(cfg.work, "trace-train-step.json")
	if err := tr.writeChrome(path, fmt.Sprintf("train-step seed %d", cfg.seed)); err != nil {
		return out, err
	}
	out.note("trace: %d spans written to %s", len(tr.spans), path)
	out.note("traced end-to-end: setup_s=%.3f steps=%d in %.3fs (%.2f ops/s, tracing included); step p50=%.3fms",
		setup.Seconds(), len(losses), elapsed.Seconds(), float64(len(losses))/elapsed.Seconds(), quantileOrZero(lat, 0.5))
	return out, nil
}

// timeMatMul times tensor.MatMul on the step's two shapes (a micro-batch
// through W1 and through W2) and returns the achieved GFLOP/s.
func timeMatMul(tr *tracer, rows, dim, hidden int) float64 {
	rng := rand.New(rand.NewSource(1))
	x, w1 := tensor.New(rows, dim), tensor.New(dim, hidden)
	h, w2 := tensor.New(rows, hidden), tensor.New(hidden, dim)
	for _, m := range []tensor.Matrix{x, w1, h, w2} {
		m.RandInit(rng, 1)
	}
	var flops float64
	var busy time.Duration
	for busy < 200*time.Millisecond {
		for _, p := range [][2]tensor.Matrix{{x, w1}, {h, w2}} {
			sp := tr.begin("tensor.MatMul", 0, -1)
			tensor.MatMul(p[0], p[1])
			busy += tr.end(sp)
			flops += 2 * float64(p[0].Rows*p[0].Cols*p[1].Cols)
		}
	}
	return flops / busy.Seconds() / 1e9
}

// timeCollectives times ReduceScatter and AllGather over a group of dp
// ranks at one stage's parameter count and returns their mean durations
// in microseconds.
func timeCollectives(tr *tracer, dp, size int) (rs, ag float64) {
	g := collective.NewGroup(dp)
	bufs := make([][]float64, dp)
	for r := range bufs {
		bufs[r] = make([]float64, size)
	}
	const reps = 50
	for i := 0; i < reps; i++ {
		sp := tr.begin("collective.ReduceScatter", i, -1)
		g.Run(func(r int) { g.ReduceScatter(r, bufs[r]) })
		tr.end(sp)
		sp = tr.begin("collective.AllGather", i, -1)
		g.Run(func(r int) { g.AllGather(r, bufs[r]) })
		tr.end(sp)
	}
	t := tr.totals()
	return t["collective.ReduceScatter"].meanUS(), t["collective.AllGather"].meanUS()
}
