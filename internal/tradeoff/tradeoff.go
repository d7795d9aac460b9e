// Package tradeoff extrapolates measured per-GPU throughput to large
// clusters and evaluates the training time/cost trade-off of Section 5.4
// (Figures 1 and 8): data parallelism is scaled with a constant batch size
// per GPU (constant utilization), the training length follows the
// batch-size overhead law (Eq. 7), and
//
//	Cost ∝ 1 + beta*N_GPU/B_crit,  Time ∝ Cost/N_GPU   (Eq. 8).
package tradeoff

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bfpp/internal/batchsize"
	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/model"
)

// Point is one (cluster size, configuration) extrapolation.
type Point struct {
	// GPUs is the extrapolated cluster size.
	GPUs int
	// Beta is the measured configuration's batch size per GPU.
	Beta float64
	// Batch is the extrapolated global batch size, Beta*GPUs.
	Batch float64
	// Overhead is the batch-size sample overhead factor 1 + B/Bcrit.
	Overhead float64
	// TimeDays is the projected training time in days.
	TimeDays float64
	// CostGPUDays is the projected cost in GPU-days.
	CostGPUDays float64
	// Plan is the measured configuration being extrapolated.
	Plan core.Plan
	// MemoryMinGiB is the configuration's large-cluster memory floor.
	MemoryMinGiB float64
}

// Extrapolate projects one measured result to a cluster of nGPUs.
func Extrapolate(m model.Transformer, r engine.Result, bcrit float64, nGPUs int) Point {
	beta := r.Plan.BatchPerGPU()
	batch := beta * float64(nGPUs)
	samples := batchsize.TrainingSamples(batch, bcrit)
	totalFlop := samples * float64(m.SeqLen) * m.FlopPerToken()
	seconds := totalFlop / (r.Throughput * float64(nGPUs))
	days := seconds / 86400
	return Point{
		GPUs:         nGPUs,
		Beta:         beta,
		Batch:        batch,
		Overhead:     batchsize.SamplesOverhead(batch, bcrit),
		TimeDays:     days,
		CostGPUDays:  days * float64(nGPUs),
		Plan:         r.Plan,
		MemoryMinGiB: r.Memory.TotalMin() / (1 << 30),
	}
}

// Curve picks, for each cluster size, the measured configuration with the
// lowest projected training time (equivalently cost, at fixed size) and
// returns the resulting cost/time curve sorted by cluster size. Cancelling
// ctx aborts the extrapolation between cluster sizes and returns
// ctx.Err().
func Curve(ctx context.Context, m model.Transformer, results []engine.Result, bcrit float64, clusterSizes []int) ([]Point, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("tradeoff: no measured results")
	}
	if bcrit <= 0 {
		return nil, fmt.Errorf("tradeoff: bcrit must be positive, got %v", bcrit)
	}
	for _, n := range clusterSizes {
		if n <= 0 {
			return nil, fmt.Errorf("tradeoff: cluster size must be positive, got %d", n)
		}
	}
	out := make([]Point, 0, len(clusterSizes))
	for _, n := range clusterSizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best := Point{TimeDays: math.Inf(1)}
		for _, r := range results {
			p := Extrapolate(m, r, bcrit, n)
			if p.TimeDays < best.TimeDays {
				best = p
			}
		}
		out = append(out, best)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GPUs < out[j].GPUs })
	return out, nil
}

// PaperClusterSizes returns the cluster sizes annotated in Figure 8.
func PaperClusterSizes() []int { return []int{256, 512, 1024, 2048, 4096, 8192, 16384} }

// Format renders a curve as an aligned table.
func Format(name string, points []Point) string {
	out := fmt.Sprintf("%s\n%8s %8s %10s %10s %12s %10s\n",
		name, "GPUs", "beta", "batch", "time(d)", "cost(GPUd)", "overhead")
	for _, p := range points {
		out += fmt.Sprintf("%8d %8.3f %10.0f %10.2f %12.0f %10.2f\n",
			p.GPUs, p.Beta, p.Batch, p.TimeDays, p.CostGPUDays, p.Overhead)
	}
	return out
}
