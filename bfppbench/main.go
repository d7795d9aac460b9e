// Command bfppbench is the repository's end-to-end benchmark. One run
// drives one workload, generated from a seed, in a closed loop, checks
// every answer, and prints its metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": 512, "failed": 0, "metrics": {...}}
//
// The workloads are paper-grid and appendix-e-large, which drive a
// bfpp-serve process over a loopback socket, and train-step, which drives
// runtime.Trainer in process. With -trace 0 the metrics are the
// end_to_end list of BENCHMARK.json; with -trace 1 the run replays a fixed
// prefix of the same inputs through each layer's exported functions, writes
// the spans as a Chrome trace and prints the per_layer list instead.
// README.md in this directory says why each workload exists and which
// end-to-end metric each per-layer metric should move.
//
// Run it through run.sh from the repository root, which builds bfpp-serve
// and this command from the tree first:
//
//	bash bfppbench/run.sh --workload paper-grid --seed 1 --seconds 18 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serve    string // bfpp-serve binary, for the search workloads
	work     string // scratch directory: server stores, scratch stores, traces
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric names
// it must print and their units, so the declaration is the single source
// of both.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run measured: the op tallies and the metric
// values by name. Notes are human-readable lines (sample counts, the
// traced run's own end-to-end numbers) printed before the result.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
	// layers names the layers a traced run exercised. A per-layer metric
	// of any other layer reads 0: the workload does no work there.
	layers map[string]bool
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-grid, appendix-e-large or train-step")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed loop in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	flag.StringVar(&cfg.serve, "serve", "", "bfpp-serve binary driven by the search workloads")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for server stores and trace files")
	flag.Parse()
	cfg.trace = traceFlag == 1

	res, notes, err := runMain(cfg)
	for _, n := range notes {
		fmt.Println(n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfppbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfppbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// specPath is the benchmark declaration, read from the repository root the
// benchmark runs in.
const specPath = "BENCHMARK.json"

// runMain validates the command line, runs the workload and shapes its
// outcome into the result the spec asks for.
func runMain(cfg config) (result, []string, error) {
	blob, err := os.ReadFile(specPath)
	if err != nil {
		return result{}, nil, err
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", specPath, err)
	}
	known := false
	for _, w := range sp.Workloads {
		known = known || w.Name == cfg.workload
	}
	run, ok := workloads[cfg.workload]
	if !known || !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, nil, fmt.Errorf("-seconds must be positive")
	}
	if cfg.work, err = filepath.Abs(cfg.work); err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, nil, err
	}

	stamp := fmt.Sprintf("bfppbench: workload=%s seed=%d trace=%t go=%s nproc=%d gomaxprocs=%d",
		cfg.workload, cfg.seed, cfg.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, cfg)
	notes := append([]string{stamp}, out.notes...)
	if err != nil {
		return result{}, notes, err
	}

	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		v, ok := out.values[m.Name]
		if layer, _, _ := strings.Cut(m.Name, "."); !ok && (!cfg.trace || out.layers[layer]) {
			return result{}, notes, fmt.Errorf("metric %s declared in %s but not measured", m.Name, specPath)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, notes, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range out.values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return result{}, notes, fmt.Errorf("measured metrics not declared in %s: %s", specPath, strings.Join(extra, ", "))
	}
	if res.Attempted < 1 {
		return result{}, notes, fmt.Errorf("no op attempted")
	}
	return res, notes, nil
}

// workloads maps each workload name to its run.
var workloads = map[string]func(context.Context, config) (outcome, error){
	"paper-grid":       func(ctx context.Context, cfg config) (outcome, error) { return runSearch(ctx, cfg, paperGrid()) },
	"appendix-e-large": func(ctx context.Context, cfg config) (outcome, error) { return runSearch(ctx, cfg, appendixELarge()) },
	"train-step":       runTrain,
}
