// Batch-size trade-off: walk through Section 3.5 and Section 5.4. First
// measure the critical batch size empirically with the SGD noise-scale
// simulator (Appendix B), then project the 52B model's training time and
// cost across cluster sizes with the overhead law (Eq. 7/8, Figure 8).
//
// Run with:
//
//	go run ./examples/batch_size_tradeoff
package main

import (
	"context"
	"fmt"
	"log"

	"bfpp"
	"bfpp/internal/batchsize"
)

func main() {
	// Part 1: the empirical law on a controlled problem.
	sim := batchsize.SGDSim{Dim: 64, Sigma: 6, Seed: 7} // B_noise = 36
	curve := sim.StepsCurve([]int{1, 4, 16, 64, 256}, 1.0, 0.05, 1_000_000)
	fmt.Println("SGD on a controlled problem (analytic critical batch = 36):")
	fmt.Printf("%8s %8s %10s\n", "batch", "steps", "samples")
	for _, b := range []int{1, 4, 16, 64, 256} {
		fmt.Printf("%8d %8d %10d\n", b, curve[b], b*curve[b])
	}
	bcrit, _, err := batchsize.FitCriticalBatch(curve)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted critical batch size: %.1f  (steps fall, samples rise: Eq. 7)\n\n", bcrit)

	// Part 2: what that means for the 52B model. Measure one good breadth-
	// first configuration per batch size on the 64-GPU reference cluster...
	cluster := bfpp.PaperCluster()
	m := bfpp.Model52B()
	bests, err := bfpp.Sweep(context.Background(), cluster, m, bfpp.FamilyBreadthFirst, []int{8, 64, 512}, bfpp.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	var measured []bfpp.Result
	for _, best := range bests {
		measured = append(measured, best.Result)
	}

	// ...then extrapolate to large clusters with the batch-size overhead.
	fmt.Printf("52B with breadth-first, Bcrit = %.0f sequences (Figure 8a):\n", bfpp.Bcrit52B)
	fmt.Printf("%8s %8s %10s %12s %14s %10s\n", "GPUs", "beta", "batch", "time (days)", "cost (GPUd)", "overhead")
	pts, err := bfpp.TradeoffCurve(context.Background(), m, measured, bfpp.Bcrit52B, []int{256, 1024, 4096, 16384}, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("%8d %8.3f %10.0f %12.2f %14.0f %9.0f%%\n",
			p.GPUs, p.Beta, p.Batch, p.TimeDays, p.CostGPUDays, 100*(p.Overhead-1))
	}
	fmt.Println("\nmore GPUs cut the time but inflate the batch, wasting samples —")
	fmt.Println("which is why the paper optimizes for a small batch size per GPU.")
}
