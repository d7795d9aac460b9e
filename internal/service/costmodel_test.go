package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bfpp/internal/core"
	"bfpp/internal/cost"
	"bfpp/internal/hw"
	"bfpp/internal/model"
	"bfpp/internal/schedule"
)

// slowProfilePath writes a calibrated profile with a halved kernel ceiling
// and returns its path: a cost model guaranteed to price every plan
// differently than the paper default.
func slowProfilePath(t *testing.T) string {
	t.Helper()
	prof := cost.DefaultProfile()
	prof.Kernel.MaxEff /= 2
	raw, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "slow.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSearchCostModelPartitionsCache pins the cache-key contract: the cost
// model is part of the canonical request, so the same scenario under a
// different model must neither hit the other's cache entry nor produce its
// table — while the nil default and the explicit "paper" spelling share
// one entry (same fingerprint, same bytes).
func TestSearchCostModelPartitionsCache(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	base := SearchRequest{Model: "6.6B", Cluster: "paper", Batches: []int{32, 64}}

	def, err := s.Search(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	paper := base
	paper.CostModel = "paper"
	if resp, err := s.Search(ctx, paper); err != nil {
		t.Fatal(err)
	} else if !resp.Cached || resp.Table != def.Table {
		t.Errorf("explicit \"paper\" should share the default's cache entry (cached=%t)", resp.Cached)
	}

	slow := base
	slow.CostModel = "calibrated:" + slowProfilePath(t)
	calResp, err := s.Search(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	if calResp.Cached {
		t.Error("calibrated request hit the paper cache entry")
	}
	if calResp.Table == def.Table {
		t.Error("halved kernel ceiling produced the paper table: cost model not applied")
	}
	// Re-requesting the calibrated spelling hits its own entry.
	if resp, err := s.Search(ctx, slow); err != nil {
		t.Fatal(err)
	} else if !resp.Cached || resp.Table != calResp.Table {
		t.Errorf("repeated calibrated request missed its cache entry (cached=%t)", resp.Cached)
	}
	// And the default entry is still intact.
	if resp, err := s.Search(ctx, base); err != nil {
		t.Fatal(err)
	} else if !resp.Cached || resp.Table != def.Table {
		t.Errorf("default entry lost after calibrated request (cached=%t)", resp.Cached)
	}
}

// TestCostModelBadRequests pins the error contract: an unknown model name
// and an unreadable calibrated profile are bad requests naming the
// registered spellings, on both the search and simulate paths.
func TestCostModelBadRequests(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	req := SearchRequest{Model: "6.6B", Cluster: "paper", Batches: []int{32},
		CostModel: "warp-speed"}
	if _, err := s.Search(ctx, req); !errors.Is(err, ErrBadRequest) ||
		!strings.Contains(err.Error(), "calibrated") {
		t.Errorf("unknown cost model: got %v, want bad request listing registered names", err)
	}
	sim := SimulateRequest{Model: "tiny", Cluster: "paper",
		Plan: core.Plan{Method: core.GPipe, DP: 1, PP: 2, TP: 1,
			MicroBatch: 1, NumMicro: 2, Loops: 1},
		CostModel: "calibrated:/no/such/profile.json"}
	if _, err := s.Simulate(ctx, sim); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unreadable profile: got %v, want bad request", err)
	}
}

// TestDefaultCostModelConfig pins the server-wide default: a service
// configured with a cost model applies it to requests that leave the field
// empty, and /healthz advertises the registry.
func TestDefaultCostModelConfig(t *testing.T) {
	ctx := context.Background()
	slow := "calibrated:" + slowProfilePath(t)
	def, err := New(Config{}).Search(ctx, SearchRequest{Model: "6.6B", Cluster: "paper", Batches: []int{32}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := New(Config{DefaultCostModel: slow}).Search(ctx,
		SearchRequest{Model: "6.6B", Cluster: "paper", Batches: []int{32}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Table == def.Table {
		t.Error("DefaultCostModel was not applied to a request without cost_model")
	}
	h := New(Config{}).Health()
	found := false
	for _, name := range h.CostModels {
		if name == "paper" {
			found = true
		}
	}
	if !found {
		t.Errorf("healthz cost_models = %v, want it to include \"paper\"", h.CostModels)
	}
}

// overflowProfilePath writes a calibrated profile that passes
// Profile.Validate but overflows every plan's batch time (a kernel launch
// of 1.79e308 s) and returns its path.
func overflowProfilePath(t *testing.T) string {
	t.Helper()
	prof := cost.DefaultProfile()
	prof.KernelLaunch = 1.79e308
	if err := prof.Validate(); err != nil {
		t.Fatalf("profile rejected by Validate: %v", err)
	}
	raw, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "overflow.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// nanFwdModel is the paper cost model with a NaN forward duration: the
// engine rejects every plan it prices.
type nanFwdModel struct{}

func (nanFwdModel) Name() string        { return "test-nan-fwd" }
func (nanFwdModel) Fingerprint() string { return "test-nan-fwd" }

func (nanFwdModel) Derive(c hw.Cluster, m model.Transformer, p core.Plan, par cost.Params) schedule.StepCosts {
	par.Model = nil
	sc := cost.Derive(c, m, p, par)
	sc.Fwd = math.NaN()
	return sc
}

// TestSearchCandidateErrorFailsRequest pins that a sweep whose candidates
// fail fails the request instead of answering an empty table: the error
// reaches the caller, a repeat recomputes (and fails) rather than hitting
// the cache, and nothing reaches the durable store. The two cost models
// fail differently: one derives a NaN duration, the other a profile that
// passes Profile.Validate but overflows the batch time to +Inf.
func TestSearchCandidateErrorFailsRequest(t *testing.T) {
	if _, err := cost.Lookup("test-nan-fwd"); err != nil { // idempotent under -count>1
		cost.Register("test-nan-fwd", func() cost.Model { return nanFwdModel{} })
	}
	ctx := context.Background()
	for _, cm := range []string{"test-nan-fwd", "calibrated:" + overflowProfilePath(t)} {
		st := openStore(t, t.TempDir())
		s := New(Config{Store: st})
		req := SearchRequest{Model: "6.6B", Cluster: "paper", Batches: []int{32}, CostModel: cm}
		for attempt := 1; attempt <= 2; attempt++ {
			resp, err := s.Search(ctx, req)
			if err == nil {
				t.Errorf("%s, attempt %d: search answered a table (cached=%t):\n%s", cm, attempt, resp.Cached, resp.Table)
			}
		}
		if w := st.Stats().Writes; w != 0 {
			t.Errorf("%s: %d failed results reached the store", cm, w)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHTTPSearchInvalidCostsIs400 pins the status of a search whose own
// cost model cannot be simulated: a calibrated profile that overflows the
// batch time is the request's fault, so /v1/search answers 400 with the
// engine's message, not 500. A repeat answers 400 again, and nothing is
// cached or stored.
func TestHTTPSearchInvalidCostsIs400(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	s := New(Config{Store: st})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	req := SearchRequest{Model: "6.6B", Cluster: "paper", Batches: []int{32},
		CostModel: "calibrated:" + overflowProfilePath(t)}
	for attempt := 1; attempt <= 2; attempt++ {
		var body struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, srv.URL+"/v1/search", req, &body); code != http.StatusBadRequest {
			t.Errorf("attempt %d: status %d, want 400 (%s)", attempt, code, body.Error)
		}
		if !strings.Contains(body.Error, "engine: batch time overflows") {
			t.Errorf("attempt %d: error %q does not carry the engine's message", attempt, body.Error)
		}
	}
	if w := st.Stats().Writes; w != 0 {
		t.Errorf("%d failed results reached the store", w)
	}
	s.mu.Lock()
	cached := len(s.cache)
	s.mu.Unlock()
	if cached != 0 {
		t.Errorf("%d failed results reached the cache", cached)
	}
}
