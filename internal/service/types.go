package service

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"bfpp/internal/cli"
	"bfpp/internal/core"
	"bfpp/internal/cost"
	"bfpp/internal/engine"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/search"
)

// ErrBadRequest marks request-resolution failures (unknown model, cluster,
// family, method or artifact name; malformed plans). The HTTP layer maps
// it to 400; everything else is an execution failure.
var ErrBadRequest = errors.New("bad request")

// badRequestf wraps a request-resolution failure in ErrBadRequest.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadRequest}, args...)...)
}

// SearchRequest is the canonical description of one Appendix E grid-search
// job: the scenario (model and cluster resolved through the open
// registries), the method-family scope, the batch grid and the search
// options. The five CLIs and the bfpp-serve endpoints share this struct,
// so a job is provably the same whichever surface submits it.
type SearchRequest struct {
	// Model names a registered model (model.Registry): "52B", "6.6B",
	// "GPT-3", "1T", "tiny", or any extension.
	Model string `json:"model"`
	// Cluster names a registered cluster (hw.Registry) or matches a
	// registered pattern: "paper", "ethernet", or a GPU count like "512".
	Cluster string `json:"cluster"`
	// Families selects method families by registry key ("bf", "ws", ...);
	// the spellings "all" (the paper's four) and "every" (all registered)
	// are accepted. Empty means "all".
	Families []string `json:"families,omitempty"`
	// Methods, when non-empty, selects the families containing the named
	// schedules instead (mirroring bfpp-search -methods).
	Methods []string `json:"methods,omitempty"`
	// Batches is the global batch-size grid. It is canonicalized to a
	// sorted, deduplicated list (the result table is sorted by batch size
	// either way).
	Batches []int `json:"batches"`
	// MaxMicroBatch caps S_mb in the enumeration; 0 means the default 16.
	MaxMicroBatch int `json:"max_micro_batch,omitempty"`
	// NoPrune disables the branch-and-bound (results are identical either
	// way; this is the perf-comparison switch).
	NoPrune bool `json:"no_prune,omitempty"`
	// CostModel names a registered cost model (cost.Registry) or matches a
	// registered pattern: "paper", "calibrated", "contended",
	// "calibrated:<profile.json>". Empty selects the default paper model.
	// The resolved model's fingerprint is part of the canonical cache key,
	// so two requests differing only in cost model never share results.
	CostModel string `json:"cost_model,omitempty"`
	// Workers is the per-request worker budget: the number of goroutines
	// this job may use, clamped to the service's MaxWorkersPerRequest.
	// 0 means the service default. Workers never changes results, so it
	// is excluded from the result-cache key.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the job's wall-clock time; the deadline is mapped
	// onto the job's context. 0 means the service default (which may be
	// "none").
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// FamilyResult is one family's sweep outcome, in canonical family order.
type FamilyResult struct {
	// Key is the family's registry key ("bf").
	Key string `json:"key"`
	// Name is the display name (the Figure 7 legend).
	Name string `json:"name"`
	// Bests holds the per-batch winners in batch order; empty when the
	// family has no feasible configuration at any requested batch.
	Bests []search.Best `json:"bests,omitempty"`
}

// SearchResponse is the outcome of a SearchRequest.
type SearchResponse struct {
	// Title is the table headline ("Optimal configurations: ...").
	Title string `json:"title"`
	// Table is the Tables E.1-E.3-style listing — byte-identical to what
	// the pre-service search.Table produced and to what bfpp-search
	// prints, which is the cross-surface equivalence the smoke test pins.
	Table string `json:"table"`
	// Families holds the structured winners, one entry per requested
	// family in canonical order.
	Families []FamilyResult `json:"families"`
	// Stats is the final branch-and-bound counter snapshot, including the
	// pricing-cascade counters (floored_out, replay_priced) at both the
	// request and per-family level — the per-request observability for
	// how far the tier-1 floor carried the pruning versus the tier-2
	// exact replay.
	Stats search.ProgressSnapshot `json:"stats"`
	// Cached reports that the response was served from the result cache
	// without re-running the search.
	Cached bool `json:"cached,omitempty"`
	// Partial reports graceful degradation: the request's deadline expired
	// mid-sweep and Table/Families hold the incumbents-so-far — every
	// entry a genuine simulated configuration, but possibly not the
	// optimum and possibly missing (family, batch) cells. Partial
	// responses are never cached.
	Partial bool `json:"partial,omitempty"`
}

// SimulateRequest asks for one discrete-event simulation of a plan.
type SimulateRequest struct {
	Model   string    `json:"model"`
	Cluster string    `json:"cluster"`
	Plan    core.Plan `json:"plan"`
	// CaptureTimeline retains the full execution trace in the result (the
	// Gantt/Chrome-trace surfaces need it; it is large).
	CaptureTimeline bool `json:"capture_timeline,omitempty"`
	// Diagram selects the times-to-scale parameter preset of the paper's
	// schedule diagrams (fixed per-op overheads zeroed), as used by
	// Figures 4 and 9 and bfpp-trace.
	Diagram bool `json:"diagram,omitempty"`
	// CostModel names a registered cost model, like SearchRequest's. Empty
	// selects the default paper model.
	CostModel string `json:"cost_model,omitempty"`
	// TimeoutMS bounds the queue wait and gates the start; the simulation
	// itself is indivisible (a single replay pass) and runs to completion
	// once started.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SimulateResponse is the outcome of a SimulateRequest.
type SimulateResponse struct {
	Result engine.Result `json:"result"`
}

// FigureRequest asks for paper artifacts by name.
type FigureRequest struct {
	// Names selects artifacts ("figure7a", "tableE1", ...); empty selects
	// all of them in paper order.
	Names []string `json:"names,omitempty"`
	// Families scopes the sweep-backed artifacts, like SearchRequest's.
	Families []string `json:"families,omitempty"`
	// CostModel names a registered cost model for the sweep-backed
	// artifacts, like SearchRequest's. Empty selects the default paper
	// model. Artifacts that simulate fixed plans directly (the schedule
	// diagrams) keep their paper preset regardless.
	CostModel string `json:"cost_model,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// Artifact is one rendered figure or table.
type Artifact struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// FigureResponse is the outcome of a FigureRequest.
type FigureResponse struct {
	Artifacts []Artifact `json:"artifacts"`
}

// cliParseModel and cliParseCluster resolve registry names, marking
// failures as bad requests.
func cliParseModel(name string) (model.Transformer, error) {
	m, err := cli.ParseModel(name)
	if err != nil {
		return m, badRequestf("%v", err)
	}
	return m, nil
}

func cliParseCluster(name string) (hw.Cluster, error) {
	c, err := cli.ParseCluster(name)
	if err != nil {
		return c, badRequestf("%v", err)
	}
	return c, nil
}

// cliParseCostModel resolves a cost-model spelling (empty means the default
// paper model, returned as nil), marking failures as bad requests.
func cliParseCostModel(name string) (cost.Model, error) {
	m, err := cli.ParseCostModel(name)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	return m, nil
}

// searchJob is a resolved SearchRequest: registry names replaced by the
// constructed scenario, family spellings by Family values.
type searchJob struct {
	model    model.Transformer
	cluster  hw.Cluster
	families []search.Family
	batches  []int
	maxMB    int
	noPrune  bool
	// costModel is the resolved cost model; nil selects the default paper
	// model (and prices identically to an explicit "paper", which the
	// shared fingerprint in the cache key records).
	costModel cost.Model
}

// title returns the table headline, byte-identical to the pre-service
// bfpp-search output.
func (j searchJob) title() string {
	return fmt.Sprintf("Optimal configurations: %s on %s (%d GPUs)",
		j.model.Name, j.cluster.Name, j.cluster.NumGPUs())
}

// resolveFamilies maps the Families/Methods selection of a request onto
// Family values: Methods win when present, then the Families keys (with
// the "all"/"every" spellings), then the paper default. The result is
// deduplicated into canonical registry order, so equivalent selections
// share one cache entry.
func resolveFamilies(families, methods []string) ([]search.Family, error) {
	var fams []search.Family
	var err error
	switch {
	case len(methods) > 0:
		ms, merr := cli.ParseMethods(strings.Join(methods, ","))
		if merr != nil {
			return nil, merr
		}
		fams, err = cli.FamiliesForMethods(ms)
	case len(families) > 0:
		fams, err = cli.ParseFamilies(strings.Join(families, ","))
	default:
		fams = search.Families()
	}
	if err != nil {
		return nil, err
	}
	seen := map[search.Family]bool{}
	for _, f := range fams {
		seen[f] = true
	}
	var out []search.Family
	for _, f := range search.AllFamilies() {
		if seen[f] {
			out = append(out, f)
		}
	}
	return out, nil
}

// resolveSearch canonicalizes a request and constructs its job. The
// returned cache key covers everything that determines the result —
// the resolved model and cluster (by content, so two names building the
// same scenario share an entry), the family keys, the batch grid and the
// search options — and deliberately excludes Workers and TimeoutMS, which
// never change results.
func resolveSearch(req SearchRequest) (searchJob, string, error) {
	var job searchJob
	var err error
	if job.model, err = cliParseModel(req.Model); err != nil {
		return job, "", err
	}
	if job.cluster, err = cliParseCluster(req.Cluster); err != nil {
		return job, "", err
	}
	if job.families, err = resolveFamilies(req.Families, req.Methods); err != nil {
		return job, "", badRequestf("%v", err)
	}
	if len(req.Batches) == 0 {
		return job, "", badRequestf("search request without batches")
	}
	job.batches = canonicalBatches(req.Batches)
	job.maxMB = req.MaxMicroBatch
	if job.maxMB <= 0 {
		job.maxMB = 16
	}
	job.noPrune = req.NoPrune
	if job.costModel, err = cliParseCostModel(req.CostModel); err != nil {
		return job, "", err
	}
	keys := make([]string, len(job.families))
	for i, f := range job.families {
		keys[i] = f.Info().Key
	}
	// The cost model enters the key by content fingerprint, not request
	// spelling: the default and an explicit "paper" share entries, two
	// different profiles at one path never do.
	key := fmt.Sprintf("model=%+v|cluster=%+v|families=%s|batches=%v|maxmb=%d|noprune=%t|cost=%s",
		job.model, job.cluster, strings.Join(keys, ","), job.batches, job.maxMB, job.noPrune,
		cost.Fingerprint(cost.Params{Model: job.costModel}))
	return job, key, nil
}

// canonicalBatches sorts and deduplicates the batch grid.
func canonicalBatches(batches []int) []int {
	out := append([]int(nil), batches...)
	sort.Ints(out)
	n := 0
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			out[n] = b
			n++
		}
	}
	return out[:n]
}
