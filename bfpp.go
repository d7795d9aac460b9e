// Package bfpp is a Go reproduction of "Breadth-First Pipeline Parallelism"
// (Joel Lamy-Poirier, MLSys 2023, arXiv:2211.05953): the breadth-first
// pipeline schedule, the baseline schedules it is compared against (GPipe,
// 1F1B, Megatron-LM's depth-first interleaving, and sharded data
// parallelism), a discrete-event cluster simulator that reproduces the
// paper's evaluation, and a real multi-goroutine training runtime that
// executes the schedules and verifies their equivalence.
//
// The package re-exports the main entry points; the implementation lives in
// the internal packages:
//
//	internal/core      parallelism plans, sharding modes, layer placement
//	internal/schedule  the schedule generators and invariant checker
//	internal/engine    the discrete-event performance simulator
//	internal/memsim    the memory model (paper Eqs. 13-17)
//	internal/analytic  closed-form efficiency model and Table 4.1
//	internal/search    the Appendix E configuration grid search
//	internal/parallel  bounded worker pool with deterministic ordering
//	internal/tradeoff  cluster-scale cost/time extrapolation (Figures 1, 8)
//	internal/batchsize critical-batch-size law and SGD noise simulator
//	internal/runtime   goroutine-based pipeline-parallel training runtime
//	internal/trace     ASCII Gantt and Chrome trace rendering
//
// # Concurrency and cancellation
//
// The grid search (Optimize, Sweep, SweepAll) prices each (family,
// batch) group start to finish on one worker of a bounded pool,
// defaulting to GOMAXPROCS goroutines; SearchOptions.Workers overrides
// the width (1 forces the serial path) and the bfpp-search/bfpp-figures/
// bfpp-tradeoff commands expose it as -workers. A sweep of several batches
// or families keeps every worker busy; Optimize is one group. Every search entry point is context-first:
// cancelling the context aborts between candidate simulations, drains the
// pool promptly and returns ctx.Err(); SearchOptions.Progress streams
// pruning-counter snapshots while a sweep runs. Results and pruning
// counters are deterministic and byte-identical at any worker count:
// winner selection is tie-stable in enumeration order. Schedule generation and memory estimates are
// memoized across simulations (plans differing only in TP, micro-batch
// size or DP width share device programs), and one replay of the checked
// programs both prices candidates and simulates them; scripts/bench.sh
// tracks the resulting speedups in BENCH_search.json.
//
// # Job service
//
// The request/response job API (SearchRequest, SimulateRequest,
// FigureRequest — re-exported from internal/service) is the canonical way
// to run jobs: the five CLI commands submit these structs in process and
// cmd/bfpp-serve exposes them over HTTP with NDJSON progress streaming,
// request deadlines, per-request worker budgets, a canonicalized search
// result cache and bounded job concurrency. Models and clusters resolve
// through open registries (RegisterModel, RegisterCluster), mirroring the
// schedule registry, so new scenarios need no new endpoints.
//
// # Quick start
//
//	cluster := bfpp.PaperCluster()          // 64 V100s, 8 DGX-1 nodes
//	m := bfpp.Model52B()                    // the paper's 52B model
//	plan := bfpp.Plan{
//		Method: bfpp.BreadthFirst, DP: 1, PP: 8, TP: 8,
//		MicroBatch: 1, NumMicro: 8, Loops: 4,
//		OverlapDP: true, OverlapPP: true,
//	}
//	res, err := bfpp.Simulate(cluster, m, plan)
//	// res.Throughput, res.Utilization, res.Memory ...
package bfpp

import (
	"bfpp/internal/analytic"
	"bfpp/internal/batchsize"
	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/runtime"
	"bfpp/internal/search"
	"bfpp/internal/service"
	"bfpp/internal/tradeoff"
)

// Core configuration types.
type (
	// Plan is a distributed-training configuration (grid sizes, micro-batch
	// structure, looping factor, sharding and overlap traits).
	Plan = core.Plan
	// Method selects the pipeline schedule.
	Method = core.Method
	// Sharding selects the data-parallel sharding mode.
	Sharding = core.Sharding
	// Transformer describes a transformer model architecture.
	Transformer = model.Transformer
	// Cluster describes the GPU cluster hardware.
	Cluster = hw.Cluster
	// GPU describes a single accelerator.
	GPU = hw.GPU
	// Result is a simulated batch outcome.
	Result = engine.Result
)

// Schedule methods (Section 4.1, Figures 4 and 9).
const (
	GPipe        = core.GPipe
	OneFOneB     = core.OneFOneB
	DepthFirst   = core.DepthFirst
	BreadthFirst = core.BreadthFirst
	NoPipelineDF = core.NoPipelineDF
	NoPipelineBF = core.NoPipelineBF
)

// Data-parallel sharding modes (Section 3.1).
const (
	DP0  = core.DP0
	DPPS = core.DPPS
	DPFS = core.DPFS
)

// Paper models (Table 5.1 and Appendix A.1).
var (
	Model52B  = model.Model52B
	Model6p6B = model.Model6p6B
	GPT3      = model.GPT3
	Model1T   = model.Model1T
)

// Paper hardware (Section 5 and Appendix A.3).
var (
	PaperCluster         = hw.PaperCluster
	PaperClusterEthernet = hw.PaperClusterEthernet
	LargeCluster         = hw.LargeCluster
	V100                 = hw.V100
	A100                 = hw.A100
	H100                 = hw.H100
)

// Open scenario registries: models and clusters register by name at init
// time (mirroring the schedule registry), and every surface — the CLI
// flags, the service requests' "model"/"cluster" fields — resolves them
// without code changes. These bind the methods of model.Registry and
// hw.Registry (one internal/registry table each): LookupModel and
// LookupCluster return an error listing the registered spellings for an
// unknown name, and cluster patterns run after the fixed names (a bare
// GPU count builds a LargeCluster).
var (
	RegisterModel          = model.Registry.Register
	LookupModel            = model.Registry.Lookup
	ModelNames             = model.Registry.Names
	RegisterCluster        = hw.Registry.Register
	RegisterClusterPattern = hw.Registry.RegisterPattern
	LookupCluster          = hw.Registry.Lookup
	ClusterNames           = hw.Registry.Names
)

// Simulate runs one training batch of the configuration on the simulator
// (the schedule replay) and returns throughput, utilization, memory and
// overhead breakdowns.
var Simulate = engine.Simulate

// Search: the Appendix E grid search (Figure 7, Tables E.1-E.3).
type (
	// SearchFamily is a method family as compared in Figure 7.
	SearchFamily = search.Family
	// SearchBest is a winning configuration with its candidate count.
	SearchBest = search.Best
	// SearchOptions tunes the grid search.
	SearchOptions = search.Options
	// SearchProgress is a pruning-counter snapshot delivered to
	// SearchOptions.Progress while a sweep runs.
	SearchProgress = search.ProgressSnapshot
)

// Method families compared in Figure 7.
const (
	FamilyBreadthFirst = search.FamilyBreadthFirst
	FamilyDepthFirst   = search.FamilyDepthFirst
	FamilyNonLooped    = search.FamilyNonLooped
	FamilyNoPipeline   = search.FamilyNoPipeline
)

// Optimize finds the most efficient feasible configuration of a family at
// a global batch size; Sweep runs it across batch sizes and SweepAll
// across several families, one group per worker. All are context-first:
// pass context.Background() for the uncancellable behavior.
var (
	Optimize          = search.Optimize
	Sweep             = search.Sweep
	SweepAll          = search.SweepAll
	SearchFamilies    = search.Families
	SearchAllFamilies = search.AllFamilies
)

// Job service: the request/response API shared by the CLIs and
// cmd/bfpp-serve. NewService builds the job manager (worker budgets,
// result cache, bounded concurrency); ServiceHandler exposes it over HTTP.
type (
	// Service executes bfpp jobs with caching and bounded concurrency.
	Service = service.Service
	// ServiceConfig tunes a Service.
	ServiceConfig = service.Config
	// SearchRequest describes one grid-search job.
	SearchRequest = service.SearchRequest
	// SearchResponse is a grid-search outcome (table + structured winners).
	SearchResponse = service.SearchResponse
	// SimulateRequest describes one discrete-event simulation.
	SimulateRequest = service.SimulateRequest
	// SimulateResponse is a simulation outcome.
	SimulateResponse = service.SimulateResponse
	// FigureRequest asks for paper artifacts by name.
	FigureRequest = service.FigureRequest
	// FigureResponse carries the rendered artifacts.
	FigureResponse = service.FigureResponse
)

var (
	NewService     = service.New
	ServiceHandler = service.Handler
)

// Trade-off extrapolation (Section 5.4, Figures 1 and 8).
type TradeoffPoint = tradeoff.Point

var (
	Extrapolate   = tradeoff.Extrapolate
	TradeoffCurve = tradeoff.Curve
)

// Batch-size law (Section 3.5, Appendix B).
var (
	SamplesOverhead = batchsize.SamplesOverhead
	TrainingSamples = batchsize.TrainingSamples
)

// Bcrit values the paper uses for its two models (Figure 8).
const (
	Bcrit52B  = batchsize.PaperBcrit52B
	Bcrit6p6B = batchsize.PaperBcrit6p6B
)

// Theoretical model (Figure 2) and intensities (Appendix A.3).
type AnalyticScenario = analytic.Scenario

var (
	DefaultScenario = analytic.DefaultScenario
	BetaNet         = analytic.BetaNet
)

// Real execution runtime (goroutines as GPUs, channels as interconnect).
type (
	// Trainer trains a toy residual-MLP network under a parallelism plan.
	Trainer = runtime.Trainer
	// NetConfig describes the toy network.
	NetConfig = runtime.NetConfig
	// AdamConfig holds optimizer hyperparameters.
	AdamConfig = runtime.AdamConfig
)

var (
	NewTrainer  = runtime.NewTrainer
	DefaultAdam = runtime.DefaultAdam
)
