package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"bfpp/internal/cli"
	"bfpp/internal/engine"
	"bfpp/internal/search"
	"bfpp/internal/service"
)

// Local is an in-process replica: it prices groups with the search
// package directly, on its own worker budget. A coordinator over N Local
// replicas is the single-machine scale-out shape (and the chaos tests'
// harness: deterministic, no sockets).
type Local struct {
	// ID names the replica in health reports; defaults to "local".
	ID string
	// Workers bounds the replica's simulation pool per group; 0 means the
	// process default.
	Workers int
}

// Name implements Replica.
func (l *Local) Name() string {
	if l.ID == "" {
		return "local"
	}
	return l.ID
}

// Check implements Replica: an in-process executor is always live.
func (l *Local) Check(context.Context) error { return nil }

// Run implements Replica: one search.Optimize call for the group under the
// request's cost model, with infeasibility ("nothing fits", a
// deterministic property of the request) separated from faults via the
// typed search.ErrInfeasible.
func (l *Local) Run(ctx context.Context, req service.SearchRequest, g search.GroupKey) (search.Best, bool, error) {
	m, err := cli.ParseModel(req.Model)
	if err != nil {
		return search.Best{}, false, err
	}
	c, err := cli.ParseCluster(req.Cluster)
	if err != nil {
		return search.Best{}, false, err
	}
	cm, err := cli.ParseCostModel(req.CostModel)
	if err != nil {
		return search.Best{}, false, err
	}
	f, ok := search.FamilyByKey(g.Family)
	if !ok {
		return search.Best{}, false, fmt.Errorf("unknown family %q", g.Family)
	}
	par := engine.Defaults()
	par.Model = cm // nil selects the paper model
	best, err := search.Optimize(ctx, c, m, f, g.Batch, search.Options{
		Params:        &par,
		MaxMicroBatch: req.MaxMicroBatch,
		NoPrune:       req.NoPrune,
		Workers:       l.Workers,
	})
	if errors.Is(err, search.ErrInfeasible) {
		return search.Best{}, false, nil
	}
	if err != nil {
		return search.Best{}, false, err
	}
	return best, true, nil
}

// HTTP is a remote replica: another bfpp-serve instance reached over its
// /v1/search endpoint. Overload (429) and transient (503) rejections are
// surfaced as the service's retryable error types, so the coordinator's
// service.Do loop backs off exactly like the CLI clients do — honoring
// the server's Retry-After hint — before failing the replica over.
type HTTP struct {
	// BaseURL is the replica's root, e.g. "http://10.0.0.2:8080".
	BaseURL string
	// Client is the HTTP client; nil means a default with a 10s dial
	// budget per attempt (the sweep context still bounds everything).
	Client *http.Client
}

// Name implements Replica.
func (h *HTTP) Name() string { return h.BaseURL }

func (h *HTTP) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// Check implements Replica: GET /healthz must answer 200. The body's
// degraded/ok distinction is deliberately ignored — a saturated replica
// still prices groups, just slower.
func (h *HTTP) Check(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, h.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := h.client().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// Run implements Replica: the group becomes a single-family single-batch
// SearchRequest — the same canonical struct every surface shares, so the
// remote replica provably runs the same job an in-process executor would.
func (h *HTTP) Run(ctx context.Context, req service.SearchRequest, g search.GroupKey) (search.Best, bool, error) {
	req.Families = []string{g.Family}
	req.Methods = nil
	req.Batches = []int{g.Batch}
	body, err := json.Marshal(req)
	if err != nil {
		return search.Best{}, false, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.BaseURL+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return search.Best{}, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := h.client().Do(hreq)
	if err != nil {
		return search.Best{}, false, fmt.Errorf("%w: %v", service.ErrTransient, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return search.Best{}, false, httpError(hresp)
	}
	var resp service.SearchResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return search.Best{}, false, fmt.Errorf("decoding response: %v", err)
	}
	if resp.Partial {
		// The replica's deadline cut the group short; its incumbent is not
		// provably the winner, so a partial answer is a retryable fault,
		// never a merged result.
		return search.Best{}, false, fmt.Errorf("%w: partial response", service.ErrTransient)
	}
	for _, fr := range resp.Families {
		if fr.Key != g.Family {
			continue
		}
		if len(fr.Bests) == 0 {
			return search.Best{}, false, nil // infeasible at this batch
		}
		return fr.Bests[0], true, nil
	}
	return search.Best{}, false, nil
}

// httpError maps a replica's rejection onto the service's error taxonomy
// so Retryable (and the Retry-After floor) work across the wire.
func httpError(resp *http.Response) error {
	var payload struct {
		Error string `json:"error"`
	}
	json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&payload)
	msg := payload.Error
	if msg == "" {
		msg = resp.Status
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		after := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		return fmt.Errorf("replica overloaded (%s): %w", msg, &service.OverloadedError{RetryAfter: after})
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", service.ErrTransient, msg)
	default:
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
}
