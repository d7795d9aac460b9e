// Package service is the job layer behind every bfpp surface: it defines
// the canonical JSON request/response types (SearchRequest,
// SimulateRequest, FigureRequest), canonicalizes and caches search
// results, enforces per-request worker budgets and bounds the number of
// concurrently executing jobs. The command-line tools submit the same
// request structs in process that cmd/bfpp-serve accepts over HTTP, so a
// CLI invocation and a server request provably run identical jobs and
// produce byte-identical tables.
//
// # Cancellation and deadlines
//
// Every method takes a context and observes cancellation — including
// while queued behind the job semaphore. A request's TimeoutMS (or the
// service's DefaultTimeout) is mapped onto the context as a deadline.
// Search and Figures abort between candidate simulations (promptly: an
// in-flight simulation is milliseconds); Simulate runs one indivisible
// simulation and checks its deadline only before it starts.
//
// # Worker budgets
//
// The search worker pool width is a per-request value (0 means
// GOMAXPROCS) clamped to Config.MaxWorkersPerRequest and threaded
// explicitly through search.Options.Workers, so concurrent requests never
// share a budget. Worker counts never change results, so they are excluded
// from the result-cache key.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bfpp/internal/cost"
	"bfpp/internal/engine"
	"bfpp/internal/fault"
	"bfpp/internal/figures"
	"bfpp/internal/parallel"
	"bfpp/internal/search"
	"bfpp/internal/store"
)

// Config tunes a Service. The zero value is usable: sensible bounds are
// filled in by New.
type Config struct {
	// MaxJobs bounds the number of concurrently executing jobs; further
	// requests queue (cancellably) until a slot frees. 0 means 4.
	MaxJobs int
	// MaxWorkersPerRequest clamps the per-request worker budget. 0 means
	// no clamp: a request's explicit Workers value is honored as-is (the
	// CLIs run this way, so -workers can oversubscribe cores exactly like
	// the pre-service flag did); servers set an explicit bound.
	MaxWorkersPerRequest int
	// CacheEntries bounds the search result cache (insertion-order
	// eviction). 0 means 64; negative disables caching.
	CacheEntries int
	// DefaultTimeout applies to requests that do not carry their own
	// TimeoutMS. 0 means no deadline.
	DefaultTimeout time.Duration
	// MaxQueued bounds how many requests may wait for a job slot at once;
	// arrivals beyond the bound are shed immediately with ErrOverloaded
	// (HTTP 429 + Retry-After) instead of parking unbounded. 0 means 16;
	// negative means unbounded (requests park until their context dies —
	// the single-job CLI shape).
	MaxQueued int
	// MaxBodyBytes caps the HTTP request body the handler will read
	// (oversize bodies get 413). 0 means 1 MiB; negative means no cap.
	MaxBodyBytes int64
	// Injector, when non-nil, is the chaos layer's hook into the job
	// service: consulted at the Job point (after a slot is acquired) and
	// threaded down to the search worker pool (PoolItem stalls). The nil
	// default costs one pointer compare per job.
	Injector fault.Injector
	// Store, when non-nil, is the durable result store: the in-memory
	// cache becomes a read-through/write-behind layer over it, so a
	// process restart serves previously computed sweeps from disk instead
	// of recomputing them. Store failures only degrade (the request is
	// served, the write is dropped, /healthz reports it) — with a nil
	// Store the service behaves bit-for-bit as before.
	Store store.KV
	// Journal, when non-nil, records each sweep's resolved (family,
	// batch) winners as they happen; an interrupted sweep re-run after a
	// restart replays the journal and prices only the unfinished groups,
	// producing a byte-identical table.
	Journal *store.Journal
	// DefaultCostModel is the cost-model spelling applied to requests that
	// do not carry their own (bfpp-serve -costmodel). Empty means the paper
	// model. The spelling is resolved per request through the cost
	// registry, so a calibrated:<profile.json> default re-reads the profile
	// like an explicit request would.
	DefaultCostModel string
}

// Service executes bfpp jobs: grid searches (cached), single simulations
// and figure regenerations. Methods are safe for concurrent use.
type Service struct {
	cfg Config
	sem chan struct{}

	inFlight        atomic.Int64 // jobs holding a slot
	queued          atomic.Int64 // requests parked on the semaphore
	shed            atomic.Int64 // requests rejected with ErrOverloaded, total
	jobArrivals     atomic.Int64 // Job injection-point coordinate
	handlerArrivals atomic.Int64 // Handler injection-point coordinate

	searches    atomic.Int64 // search requests admitted past resolution
	cacheHits   atomic.Int64 // served from the in-memory result cache
	cacheMisses atomic.Int64
	storeHits   atomic.Int64 // served from the durable store (read-through)
	storeMisses atomic.Int64
	journalErrs atomic.Int64 // dropped checkpoint appends (degraded)

	agg search.Stats // lifetime pruning counters, for /metrics

	mu    sync.Mutex
	cache map[string]SearchResponse
	order []string // cache keys in insertion order, for eviction
}

// New returns a Service with the config's zero fields defaulted.
func New(cfg Config) *Service {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 64
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 16
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	return &Service{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxJobs),
		cache: map[string]SearchResponse{},
	}
}

// Health is the structured /healthz report. The endpoint always answers
// 200 — "degraded" is a field, not a status code, so saturation does not
// read as a flapping prober failure.
type Health struct {
	// Status is "ok", or "degraded" while every job slot is busy (new
	// requests queue or are shed).
	Status string `json:"status"`
	// InFlight is the number of jobs currently holding a slot, out of
	// MaxJobs.
	InFlight int `json:"in_flight"`
	MaxJobs  int `json:"max_jobs"`
	// Queued is the number of requests parked waiting for a slot.
	Queued int `json:"queued"`
	// ShedTotal counts requests rejected with 429 since startup.
	ShedTotal int64 `json:"shed_total"`
	// Store reports the durable result store and sweep journal, when
	// configured. Degraded-as-data: write errors leave the service up
	// (serving and caching from memory) and show here.
	Store *StoreHealth `json:"store,omitempty"`
	// CostModels lists the registered cost-model spellings (fixed names,
	// then pattern labels) a request's cost_model field accepts.
	CostModels []string `json:"cost_models,omitempty"`
}

// StoreHealth is the durability section of /healthz.
type StoreHealth struct {
	// OK is false once any store or journal write has failed: results
	// are still served (from memory), durability is degraded.
	OK bool `json:"ok"`
	// Stats are the result store's counters.
	Stats store.Stats `json:"stats"`
	// Journal carries the sweep journal's counters when one is
	// configured; its CorruptionsRecovered counts crash tails healed at
	// startup.
	Journal *store.Stats `json:"journal,omitempty"`
}

// Health reports the service's load and durability state.
func (s *Service) Health() Health {
	h := Health{
		Status:     "ok",
		InFlight:   int(s.inFlight.Load()),
		MaxJobs:    s.cfg.MaxJobs,
		Queued:     int(s.queued.Load()),
		ShedTotal:  s.shed.Load(),
		CostModels: cost.Names(),
	}
	if h.InFlight >= h.MaxJobs || h.Queued > 0 {
		h.Status = "degraded"
	}
	if s.cfg.Store != nil || s.cfg.Journal != nil {
		sh := &StoreHealth{OK: true}
		if s.cfg.Store != nil {
			sh.Stats = s.cfg.Store.Stats()
			if sh.Stats.WriteErrors > 0 {
				sh.OK = false
			}
		}
		if s.cfg.Journal != nil {
			js := s.cfg.Journal.Stats()
			sh.Journal = &js
			if js.WriteErrors > 0 {
				sh.OK = false
			}
		}
		if !sh.OK {
			h.Status = "degraded"
		}
		h.Store = sh
	}
	return h
}

// workers resolves a request's worker budget: the requested count (or
// GOMAXPROCS when 0), clamped to MaxWorkersPerRequest when one is
// configured.
func (s *Service) workers(requested int) int {
	w := parallel.Resolve(requested)
	if s.cfg.MaxWorkersPerRequest > 0 && w > s.cfg.MaxWorkersPerRequest {
		w = s.cfg.MaxWorkersPerRequest
	}
	return w
}

// shedRetryAfter is the backoff hint attached to load-shed rejections.
const shedRetryAfter = time.Second

// acquire claims a job slot and returns its release function. A free slot
// is claimed immediately; otherwise the request parks (cancellably) in the
// bounded queue, and when the queue is full too it is shed with
// ErrOverloaded — the load-shedding contract: saturation costs the client
// a fast 429 + Retry-After, never an unbounded wait.
func (s *Service) acquire(ctx context.Context) (func(), error) {
	release := func() {
		s.inFlight.Add(-1)
		<-s.sem
	}
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return release, nil
	default:
	}
	if max := s.cfg.MaxQueued; max > 0 && s.queued.Load() >= int64(max) {
		s.shed.Add(1)
		return nil, &OverloadedError{RetryAfter: shedRetryAfter}
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// injectJob consults the chaos injector at the Job point — inside the job,
// slot held — so the panic path proves the slot is released and the server
// survives. Coordinates: job arrival number.
func (s *Service) injectJob(ctx context.Context) error {
	inj := s.cfg.Injector
	if inj == nil {
		return nil
	}
	n := s.jobArrivals.Add(1) - 1
	f, ok := inj.At(fault.Job, int(n))
	if !ok {
		return nil
	}
	switch f.Kind {
	case fault.Panic:
		panic(fmt.Sprintf("injected job fault (arrival %d)", n))
	case fault.Delay:
		return fault.SleepCtx(ctx, f.Sleep)
	case fault.Error:
		return fmt.Errorf("%w: %w", ErrTransient, f.Err)
	}
	return nil
}

// deadline applies the request's TimeoutMS (or the service default) to the
// context.
func (s *Service) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// cacheGet returns the cached response for a key.
func (s *Service) cacheGet(key string) (SearchResponse, bool) {
	if s.cfg.CacheEntries < 0 {
		return SearchResponse{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	resp, ok := s.cache[key]
	return resp, ok
}

// cachePut stores a response, evicting the oldest entries beyond the
// configured bound. Cached responses are treated as immutable.
func (s *Service) cachePut(key string, resp SearchResponse) {
	if s.cfg.CacheEntries < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cache[key]; !ok {
		s.order = append(s.order, key)
	}
	s.cache[key] = resp
	for len(s.order) > s.cfg.CacheEntries {
		delete(s.cache, s.order[0])
		s.order = s.order[1:]
	}
}

// Search runs a grid-search job (or serves it from the result cache).
// Identical canonicalized requests — whatever their Workers or TimeoutMS —
// share one cache entry, so a repeated sweep costs a map lookup.
func (s *Service) Search(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	return s.searchWith(ctx, req, nil)
}

// SearchStream is Search with live progress: the callback receives
// pruning-counter snapshots while the sweep runs (it is invoked serially,
// from worker goroutines, and must return quickly). A cache hit emits the
// final snapshot once.
func (s *Service) SearchStream(ctx context.Context, req SearchRequest, progress func(search.ProgressSnapshot)) (SearchResponse, error) {
	return s.searchWith(ctx, req, progress)
}

func (s *Service) searchWith(ctx context.Context, req SearchRequest, progress func(search.ProgressSnapshot)) (SearchResponse, error) {
	// The config default fills the request's cost_model before
	// canonicalization, so the cache key and the journal key both carry the
	// effective choice.
	if req.CostModel == "" {
		req.CostModel = s.cfg.DefaultCostModel
	}
	job, key, err := resolveSearch(req)
	if err != nil {
		return SearchResponse{}, err
	}
	s.searches.Add(1)
	if resp, ok := s.cacheGet(key); ok {
		s.cacheHits.Add(1)
		resp.Cached = true
		if progress != nil {
			progress(resp.Stats)
		}
		return resp, nil
	}
	s.cacheMisses.Add(1)
	if resp, ok := s.storeGet(key); ok {
		// Read-through: a restart loses the in-memory cache, not the
		// store. The durable copy refills the cache and is served as a
		// cache hit.
		s.cachePut(key, resp)
		resp.Cached = true
		if progress != nil {
			progress(resp.Stats)
		}
		return resp, nil
	}
	// The deadline applies before the queue wait: a request must not park
	// on the semaphore beyond its own budget.
	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		return SearchResponse{}, err
	}
	defer release()
	if err := s.injectJob(ctx); err != nil {
		return SearchResponse{}, err
	}

	resp, err := s.localSearch(ctx, req, job, key, s.journalResume(key), progress)
	if err != nil {
		return SearchResponse{}, err
	}
	if !resp.Partial {
		// Write-behind: the cache stays authoritative for this process;
		// the durable copy is best-effort (a failed Put only degrades).
		s.cachePut(key, resp)
		s.storePut(key, resp)
	}
	return resp, nil
}

// localSearch runs the sweep in process, with journal checkpointing
// (every resolved group durably recorded as the sweep runs) and resume
// (journaled groups not re-priced).
func (s *Service) localSearch(ctx context.Context, req SearchRequest, job searchJob, key string, resume map[search.GroupKey]search.Best, progress func(search.ProgressSnapshot)) (SearchResponse, error) {
	stats := &search.Stats{}
	opt := search.Options{
		MaxMicroBatch: job.maxMB,
		Workers:       s.workers(req.Workers),
		NoPrune:       job.noPrune,
		Stats:         stats,
		Progress:      progress,
		Resume:        resume,
		Checkpoint:    s.journalCheckpoint(key),
	}
	if job.costModel != nil {
		// The cost model rides the engine params; the search threads them
		// to the simulator and every bound, which is what keeps pruning
		// exact under a non-default model.
		par := engine.Defaults()
		par.Model = job.costModel
		opt.Params = &par
	}
	// The injector rides the context into the search worker pool (PoolItem
	// stalls); fault.With is a no-op when no injector is configured.
	results, err := search.SweepAll(fault.With(ctx, s.cfg.Injector),
		job.cluster, job.model, job.families, job.batches, opt)
	partial := false
	if err != nil {
		ctxErr := ctx.Err()
		switch {
		case errors.Is(ctxErr, context.DeadlineExceeded) && len(results) > 0:
			// Graceful degradation: the time budget ran out mid-sweep but
			// incumbents exist. Serve the incumbent-so-far table marked
			// partial — and never cache it — instead of a bare 504.
			partial = true
		case ctxErr != nil:
			return SearchResponse{}, ctxErr
		case errors.Is(err, search.ErrInfeasible):
			// No family feasible at any batch: an empty table, exactly like
			// the pre-service CLI (which warned per family and printed the
			// header-only table).
			results = map[search.Family][]search.Best{}
		case errors.Is(err, engine.ErrInvalidCosts):
			// The request's cost model derived a duration the simulation
			// cannot charge (a NaN or overflowing calibration value): the
			// caller's input, not a server fault. Nothing is cached or
			// stored.
			return SearchResponse{}, badRequestf("%v", err)
		default:
			// Any other candidate failure fails the request too, which
			// leaves nothing cached or stored.
			return SearchResponse{}, err
		}
	}
	resp := SearchResponse{
		Title:   job.title(),
		Table:   search.Table(job.title(), results),
		Stats:   stats.Snapshot(),
		Partial: partial,
	}
	for _, f := range job.families {
		info := f.Info()
		resp.Families = append(resp.Families, FamilyResult{
			Key:   info.Key,
			Name:  info.Name,
			Bests: results[f],
		})
	}
	s.aggregate(resp.Stats)
	return resp, nil
}

// journalEntry is one sweep checkpoint record: a resolved group and its
// winner, stored as JSON under the sweep's cache key.
type journalEntry struct {
	Key  search.GroupKey `json:"key"`
	Best search.Best     `json:"best"`
}

// journalResume rebuilds a sweep's resume map from its journaled
// checkpoints (nil when no journal is configured or nothing is recorded).
// Duplicate records — a group journaled again by a resumed run — are
// harmless: winners are deterministic, so last-wins rebuilds the same map.
func (s *Service) journalResume(key string) map[search.GroupKey]search.Best {
	if s.cfg.Journal == nil {
		return nil
	}
	entries := s.cfg.Journal.Entries(key)
	if len(entries) == 0 {
		return nil
	}
	resume := make(map[search.GroupKey]search.Best, len(entries))
	for _, blob := range entries {
		var e journalEntry
		if err := json.Unmarshal(blob, &e); err == nil && e.Key.Family != "" {
			resume[e.Key] = e.Best
		}
	}
	return resume
}

// journalCheckpoint returns the durable checkpoint sink for a sweep, or
// nil when no journal is configured. Append failures degrade — the sweep
// continues unjournaled and /healthz reports it — because losing a
// checkpoint only costs re-pricing that group after a crash.
func (s *Service) journalCheckpoint(key string) func(search.GroupKey, search.Best) {
	if s.cfg.Journal == nil {
		return nil
	}
	return func(g search.GroupKey, b search.Best) {
		blob, err := json.Marshal(journalEntry{Key: g, Best: b})
		if err != nil {
			s.journalErrs.Add(1)
			return
		}
		if err := s.cfg.Journal.Append(key, blob); err != nil {
			s.journalErrs.Add(1)
		}
	}
}

// storeGet is the read-through side of the durable store: a hit is an
// exact, previously computed response (the CRC framing guarantees it is
// the bytes that were written; a record that fails to decode is treated
// as a miss, never served).
func (s *Service) storeGet(key string) (SearchResponse, bool) {
	if s.cfg.Store == nil {
		return SearchResponse{}, false
	}
	blob, ok, err := s.cfg.Store.Get(key)
	if err != nil || !ok {
		s.storeMisses.Add(1)
		return SearchResponse{}, false
	}
	var resp SearchResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		s.storeMisses.Add(1)
		return SearchResponse{}, false
	}
	s.storeHits.Add(1)
	return resp, true
}

// storePut is the write-behind side: best-effort durability for a
// completed response. Failures are counted (and degrade /healthz) but
// never fail the request.
func (s *Service) storePut(key string, resp SearchResponse) {
	if s.cfg.Store == nil {
		return
	}
	blob, err := json.Marshal(resp)
	if err != nil {
		return
	}
	s.cfg.Store.Put(key, blob)
}

// Simulate runs one simulation. The simulation itself is indivisible: the
// context gates the queue wait and the start (an expired deadline or a
// gone client never starts the job), but a simulation already running
// completes — it is a single replay pass, not a sweep.
func (s *Service) Simulate(ctx context.Context, req SimulateRequest) (SimulateResponse, error) {
	m, err := cliParseModel(req.Model)
	if err != nil {
		return SimulateResponse{}, err
	}
	c, err := cliParseCluster(req.Cluster)
	if err != nil {
		return SimulateResponse{}, err
	}
	if req.CostModel == "" {
		req.CostModel = s.cfg.DefaultCostModel
	}
	cm, err := cliParseCostModel(req.CostModel)
	if err != nil {
		return SimulateResponse{}, err
	}
	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		return SimulateResponse{}, err
	}
	defer release()
	if err := s.injectJob(ctx); err != nil {
		return SimulateResponse{}, err
	}
	if err := ctx.Err(); err != nil {
		return SimulateResponse{}, err
	}
	eopt := engine.Options{CaptureTimeline: req.CaptureTimeline}
	if req.Diagram {
		par := figures.DiagramParams()
		par.Model = cm
		eopt.Params = &par
	} else if cm != nil {
		par := engine.Defaults()
		par.Model = cm
		eopt.Params = &par
	}
	res, err := engine.SimulateOpts(c, m, req.Plan, eopt)
	if err != nil {
		// With a resolved model and cluster, a simulation failure means the
		// request's plan is invalid for the scenario (Plan.Validate, the
		// GPU-budget checks): the caller's input, not a server fault.
		return SimulateResponse{}, badRequestf("simulate: %v", err)
	}
	return SimulateResponse{Result: res}, nil
}

// FigureProgress is one artifact-level progress line of a streamed figure
// regeneration: the artifact about to run and the completed count.
type FigureProgress struct {
	// Artifact names the generator currently running; empty on the final
	// all-done line.
	Artifact string `json:"artifact,omitempty"`
	// Done counts completed generators, out of Total.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Figures regenerates the requested artifacts in paper order.
func (s *Service) Figures(ctx context.Context, req FigureRequest) (FigureResponse, error) {
	return s.figuresWith(ctx, req, nil)
}

// FiguresStream is Figures with artifact-level progress: the callback
// fires before each generator runs and once more when all are done (it
// may be invoked from the job goroutine and must return quickly).
func (s *Service) FiguresStream(ctx context.Context, req FigureRequest, progress func(FigureProgress)) (FigureResponse, error) {
	return s.figuresWith(ctx, req, progress)
}

func (s *Service) figuresWith(ctx context.Context, req FigureRequest, progress func(FigureProgress)) (FigureResponse, error) {
	fams, err := resolveFamilies(req.Families, nil)
	if err != nil {
		return FigureResponse{}, badRequestf("%v", err)
	}
	if req.CostModel == "" {
		req.CostModel = s.cfg.DefaultCostModel
	}
	cm, err := cliParseCostModel(req.CostModel)
	if err != nil {
		return FigureResponse{}, err
	}
	cfg := figures.Config{Workers: s.workers(req.Workers), CostModel: cm}
	if len(req.Families) > 0 {
		// Only an explicit selection narrows the artifacts: their defaults
		// differ per artifact (paper families vs every registered family).
		cfg.Families = fams
	}
	gens := figures.Generators(cfg)
	selected := gens
	if len(req.Names) > 0 {
		byName := map[string]figures.Generator{}
		var available []string
		for _, g := range gens {
			byName[g.Name] = g
			available = append(available, g.Name)
		}
		selected = nil
		for _, name := range req.Names {
			g, ok := byName[name]
			if !ok {
				return FigureResponse{}, badRequestf("unknown artifact %q (available: %v)", name, available)
			}
			selected = append(selected, g)
		}
	}
	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		return FigureResponse{}, err
	}
	defer release()
	if err := s.injectJob(ctx); err != nil {
		return FigureResponse{}, err
	}
	var resp FigureResponse
	for i, g := range selected {
		if progress != nil {
			progress(FigureProgress{Artifact: g.Name, Done: i, Total: len(selected)})
		}
		text, err := g.Run(ctx)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return FigureResponse{}, ctxErr
			}
			return FigureResponse{}, fmt.Errorf("service: %s: %w", g.Name, err)
		}
		resp.Artifacts = append(resp.Artifacts, Artifact{Name: g.Name, Text: text})
	}
	if progress != nil {
		progress(FigureProgress{Done: len(selected), Total: len(selected)})
	}
	return resp, nil
}
