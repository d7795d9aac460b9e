// Command coldsweep times one cold sweep of the 52B model on the paper
// cluster in a fresh process: the method families chosen by -families
// (the paper's Figure-7 families by default, "every" for all registered
// ones) at batch sizes 8 to 512, one search.SweepAll call on one worker,
// with every memo cache empty. It prints one JSON object: the sweep's
// wall time, the schedule keys it generated (schedule memo-cache misses),
// the heap still in use after a GC (what the memo caches hold on to) and
// GOMAXPROCS. scripts/bench.sh runs it several times per family set and
// records the results as BENCH_search.json's cold_sweep_figure7 and
// cold_sweep_every_family.
//
// Usage: go run ./scripts/coldsweep [-families all|every]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"bfpp/internal/cli"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
	"bfpp/internal/search"
)

func main() {
	familyNames := flag.String("families", "all", "\"all\" (the paper's Figure-7 families) or \"every\" (all registered)")
	flag.Parse()
	families, err := cli.ParseFamilies(*familyNames)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coldsweep:", err)
		os.Exit(2)
	}
	batches := []int{8, 16, 32, 64, 128, 256, 512}
	start := time.Now()
	_, err = search.SweepAll(context.Background(), hw.PaperCluster(), model.Model52B(),
		families, batches, search.Options{Workers: 1})
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coldsweep:", err)
		os.Exit(1)
	}
	_, keys := schedule.CacheStats()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("{\"wall_ms\": %.1f, \"schedule_keys\": %d, \"heap_inuse_mib\": %.1f, \"gomaxprocs\": %d}\n",
		float64(wall.Microseconds())/1e3, keys, float64(ms.HeapInuse)/(1<<20), runtime.GOMAXPROCS(0))
}
