package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bfpp/internal/fault"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestShedWhenSaturated pins load shedding: with the slot busy and the
// queue full, a further request is rejected immediately with ErrOverloaded
// (carrying a Retry-After hint) instead of parking, and the health report
// shows the degradation.
func TestShedWhenSaturated(t *testing.T) {
	s := New(Config{MaxJobs: 1, MaxQueued: 1})
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	defer cancelWaiter()
	waiterDone := make(chan error, 1)
	go func() {
		rel, err := s.acquire(waiterCtx)
		if err == nil {
			rel()
		}
		waiterDone <- err
	}()
	waitFor(t, "the waiter to park", func() bool { return s.Health().Queued == 1 })

	_, shedErr := s.acquire(context.Background())
	if !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("saturated acquire err = %v, want ErrOverloaded", shedErr)
	}
	if hint := RetryAfterHint(shedErr); hint <= 0 {
		t.Errorf("shed error carries no Retry-After hint: %v", shedErr)
	}
	if !Retryable(shedErr) {
		t.Errorf("shed error is not marked retryable: %v", shedErr)
	}

	h := s.Health()
	if h.Status != "degraded" || h.InFlight != 1 || h.Queued != 1 || h.ShedTotal != 1 {
		t.Errorf("health under saturation = %+v", h)
	}

	// Releasing the slot lets the parked waiter through; health recovers.
	release()
	if err := <-waiterDone; err != nil {
		t.Fatalf("parked waiter err = %v", err)
	}
	waitFor(t, "health to recover", func() bool { return s.Health().Status == "ok" })
	if h := s.Health(); h.InFlight != 0 || h.Queued != 0 {
		t.Errorf("health after drain = %+v", h)
	}
}

// TestCancelWhileQueuedNoLeak cancels several requests parked behind the
// semaphore and asserts they all unblock with context.Canceled, the queue
// count returns to zero, no goroutines leak, and the slot still works.
func TestCancelWhileQueuedNoLeak(t *testing.T) {
	s := New(Config{MaxJobs: 1, MaxQueued: -1})
	before := runtime.NumGoroutine()
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := s.Search(ctx, smallReq())
			done <- err
		}()
	}
	waitFor(t, "all waiters to park", func() bool { return s.Health().Queued == waiters })
	cancel()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("queued waiter err = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued waiter did not unblock on cancellation")
		}
	}
	if q := s.Health().Queued; q != 0 {
		t.Fatalf("queued = %d after cancellation, want 0", q)
	}
	release()
	// The slot must be reusable: a real job runs to completion.
	if _, err := s.Search(context.Background(), smallReq()); err != nil {
		t.Fatalf("post-cancel search: %v", err)
	}
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= before })
}

// TestCancelDuringRetryBackoff pins that a client context cancelled while
// Do is backing off returns promptly with the last real failure instead of
// sleeping out the schedule.
func TestCancelDuringRetryBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Hour, Multiplier: 2}
	start := time.Now()
	_, err := Do(ctx, p, func() (int, error) {
		return 0, &OverloadedError{RetryAfter: time.Hour}
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want the last real failure (ErrOverloaded)", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Do returned after %v; backoff was not cancellable", elapsed)
	}
}

// TestRetryPolicyDeterminism pins the jitter schedule: same seed, same
// delays; Retry-After hints floor the computed delay; distinct seeds
// decorrelate.
func TestRetryPolicyDeterminism(t *testing.T) {
	p := DefaultRetry(7)
	for attempt := 1; attempt <= 3; attempt++ {
		a, b := p.delay(attempt, 0), p.delay(attempt, 0)
		if a != b {
			t.Fatalf("attempt %d: delay not deterministic (%v != %v)", attempt, a, b)
		}
		if a <= 0 || a > p.MaxDelay {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, a, p.MaxDelay)
		}
	}
	if p.delay(1, 10*time.Second) != 10*time.Second {
		t.Error("Retry-After hint did not floor the delay")
	}
	if DefaultRetry(7).delay(2, 0) == DefaultRetry(8).delay(2, 0) {
		t.Error("different seeds produced identical jitter")
	}
}

// TestJobFaultRetryByteIdentical is the chaos property at the service
// level: transient injected job faults plus scripted worker-pool stalls, a
// retrying client, and the final table is byte-identical to the fault-free
// run.
func TestJobFaultRetryByteIdentical(t *testing.T) {
	clean, err := New(Config{}).Search(context.Background(), smallReq())
	if err != nil {
		t.Fatal(err)
	}

	inj := fault.NewScript(
		fault.Rule{Point: fault.Job, Times: 2, Fault: fault.Fault{Kind: fault.Error, Err: fault.InjectedError{Msg: "job"}}},
		fault.Rule{Point: fault.PoolItem, Times: 50, Fault: fault.Fault{Kind: fault.Delay, Sleep: 50 * time.Microsecond}},
	)
	s := New(Config{CacheEntries: -1, Injector: inj})

	// A bare call reports the injected failure and marks it retryable.
	_, err = s.Search(context.Background(), smallReq())
	if !errors.Is(err, ErrTransient) || !Retryable(err) {
		t.Fatalf("first call err = %v, want a retryable transient fault", err)
	}

	resp, err := Do(context.Background(),
		RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Multiplier: 2, Jitter: 0.3, Seed: 1},
		func() (SearchResponse, error) { return s.Search(context.Background(), smallReq()) })
	if err != nil {
		t.Fatalf("retried search: %v", err)
	}
	if resp.Partial || resp.Cached {
		t.Fatalf("retried response flags: partial=%v cached=%v", resp.Partial, resp.Cached)
	}
	if resp.Table != clean.Table {
		t.Errorf("table after retries differs from fault-free run:\n--- faulted ---\n%s--- clean ---\n%s",
			resp.Table, clean.Table)
	}
	if inj.Fired() < 2 {
		t.Errorf("injector fired %d faults, want >= 2", inj.Fired())
	}
}

// TestHTTPJobPanicContained pins the panic middleware end to end: a job
// that panics mid-request produces a 500 for that request only — the
// server survives, the semaphore slot is released, and the next identical
// request succeeds with the fault-free bytes.
func TestHTTPJobPanicContained(t *testing.T) {
	clean, err := New(Config{}).Search(context.Background(), smallReq())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxJobs: 1, Injector: fault.NewScript(
		fault.Rule{Point: fault.Job, Fault: fault.Fault{Kind: fault.Panic}},
	)})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	var errResp map[string]string
	if code := postJSON(t, srv.URL+"/v1/search", smallReq(), &errResp); code != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d, want 500", code)
	}
	if !strings.Contains(errResp["error"], "internal error") {
		t.Errorf("panic error body = %q", errResp["error"])
	}

	var ok SearchResponse
	if code := postJSON(t, srv.URL+"/v1/search", smallReq(), &ok); code != http.StatusOK {
		t.Fatalf("request after panic: status %d (slot leaked or server dead?)", code)
	}
	if ok.Table != clean.Table {
		t.Error("table after recovered panic differs from fault-free run")
	}
	if h := s.Health(); h.InFlight != 0 {
		t.Errorf("in_flight = %d after panic, want 0 (slot leaked)", h.InFlight)
	}
}

// TestHTTPShedAndRetryAfter drives saturation over HTTP: the shed request
// gets 429 with a Retry-After header, and the parked one completes once
// the slot frees.
func TestHTTPShedAndRetryAfter(t *testing.T) {
	s := New(Config{MaxJobs: 1, MaxQueued: 1})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(raw))
		if err != nil {
			parked <- -1
			return
		}
		resp.Body.Close()
		parked <- resp.StatusCode
	}()
	waitFor(t, "the HTTP waiter to park", func() bool { return s.Health().Queued >= 1 })

	resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}

	release()
	if code := <-parked; code != http.StatusOK {
		t.Fatalf("parked request finished with %d", code)
	}
}

// TestHTTPHandlerFaultThenHealthz: an injected admission-level error is a
// retryable 503 with Retry-After, the next arrival passes, and /healthz
// reports structured JSON (always 200).
func TestHTTPHandlerFaultThenHealthz(t *testing.T) {
	s := New(Config{Injector: fault.NewScript(
		fault.Rule{Point: fault.Handler, Fault: fault.Fault{Kind: fault.Error, Err: fault.InjectedError{Msg: "admission"}}},
	)})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	raw, err := json.Marshal(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected handler fault: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("injected 503 without Retry-After header")
	}

	if code := postJSON(t, srv.URL+"/v1/search", smallReq(), nil); code != http.StatusOK {
		t.Fatalf("arrival after injected fault: status %d", code)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if hresp.StatusCode != http.StatusOK || h.Status != "ok" || h.MaxJobs != 4 || h.InFlight != 0 {
		t.Errorf("healthz = %d %+v", hresp.StatusCode, h)
	}
}

// TestHTTPBodyTooLarge pins the request-size limit: an oversize body gets
// 413 while a small request still fits under the same cap.
func TestHTTPBodyTooLarge(t *testing.T) {
	s := New(Config{MaxBodyBytes: 256})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	big := SearchRequest{Model: "6.6B", Cluster: "paper", Batches: make([]int, 200)}
	for i := range big.Batches {
		big.Batches[i] = 1 << 20
	}
	raw, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= 256 {
		t.Fatalf("test body only %d bytes; grow it", len(raw))
	}
	resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}
	small := SearchRequest{Model: "6.6B", Cluster: "paper", Batches: []int{32}}
	if code := postJSON(t, srv.URL+"/v1/search", small, nil); code != http.StatusOK {
		t.Errorf("small body under cap: status %d", code)
	}
}

// TestHTTPPartialOnDeadline forces graceful degradation deterministically:
// seeded pool stalls slow the sweep so the deadline fires mid-flight, and
// the response must be either 504 or a 200 carrying "partial": true —
// never a complete table. Each stall outlasts the 50 ms deadline, so the
// sweep cannot finish in time however fast it prices.
func TestHTTPPartialOnDeadline(t *testing.T) {
	inj := fault.NewSeeded(3).Rate(fault.PoolItem, 1, fault.Fault{Kind: fault.Delay, Sleep: 100 * time.Millisecond})
	s := New(Config{Injector: inj, CacheEntries: -1})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	req := smallReq()
	req.TimeoutMS = 50
	req.NoPrune = true
	var resp SearchResponse
	switch code := postJSON(t, srv.URL+"/v1/search", req, &resp); code {
	case http.StatusGatewayTimeout:
	case http.StatusOK:
		if !resp.Partial {
			t.Error("stalled sweep finished completely; want partial or 504 (raise the stall?)")
		}
	default:
		t.Fatalf("status %d", code)
	}
}
