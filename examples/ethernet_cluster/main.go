// Ethernet cluster: the slow-network use case of Section 4.3. Without
// InfiniBand, the data-parallel gradient reduction is much harder to hide,
// so the breadth-first schedule's full-batch overlap window matters even
// more — and the no-pipeline (2d) approach needs an enormous batch size per
// GPU (beta_net ~ 32) to stay efficient.
//
// Run with:
//
//	go run ./examples/ethernet_cluster
package main

import (
	"context"
	"fmt"
	"log"

	"bfpp"
)

func main() {
	m := bfpp.Model6p6B()
	ib := bfpp.PaperCluster()
	eth := bfpp.PaperClusterEthernet()

	fmt.Printf("model: %v\n", m)
	fmt.Printf("beta_net (InfiniBand): %.0f   beta_net (Ethernet): %.0f   (Appendix A.3.1)\n\n",
		bfpp.BetaNet(ib.GPU, ib.InterNode, m.SeqLen),
		bfpp.BetaNet(eth.GPU, eth.InterNode, m.SeqLen))

	// Same configuration on both networks: breadth-first vs the
	// non-overlapping depth-first baseline, DP = 8.
	mk := func(method bfpp.Method, overlap bool) bfpp.Plan {
		return bfpp.Plan{Method: method, DP: 8, PP: 4, TP: 2,
			MicroBatch: 1, NumMicro: 8, Loops: 4, OverlapDP: overlap, OverlapPP: overlap}
	}
	for _, net := range []struct {
		name    string
		cluster bfpp.Cluster
	}{{"InfiniBand", ib}, {"Ethernet", eth}} {
		bf, err := bfpp.Simulate(net.cluster, m, mk(bfpp.BreadthFirst, true))
		if err != nil {
			log.Fatal(err)
		}
		df, err := bfpp.Simulate(net.cluster, m, mk(bfpp.DepthFirst, false))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s breadth-first %6.2f Tflop/s  depth-first %6.2f Tflop/s  advantage %.0f%%\n",
			net.name, bf.Throughput/1e12, df.Throughput/1e12, 100*(bf.Throughput/df.Throughput-1))
	}

	// Optimized comparison at a moderate batch (Figure 7c scenario).
	// One sweep prices every family's group at once, one per worker.
	fmt.Println("\noptimized configurations at B=128 on Ethernet:")
	results, err := bfpp.SweepAll(context.Background(), eth, m, bfpp.SearchFamilies(), []int{128}, bfpp.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range bfpp.SearchFamilies() {
		bests, ok := results[f]
		if !ok {
			fmt.Printf("%-26s infeasible\n", f)
			continue
		}
		fmt.Printf("%-26s %6.2f Tflop/s  %v\n", f, bests[0].Throughput/1e12, bests[0].Plan)
	}
}
