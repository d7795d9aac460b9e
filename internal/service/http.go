package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bfpp/internal/fault"
	"bfpp/internal/search"
)

// Handler exposes the service over HTTP:
//
//	POST /v1/search    SearchRequest  -> SearchResponse
//	POST /v1/simulate  SimulateRequest -> SimulateResponse
//	POST /v1/figures   FigureRequest  -> FigureResponse
//	GET  /healthz      liveness probe (JSON Health, always 200)
//	GET  /metrics      Prometheus text exposition (see WriteMetrics)
//
// Responses are JSON. /v1/search and /v1/figures stream NDJSON instead
// when the request sets ?stream=1 or sends "Accept:
// application/x-ndjson": progress lines {"progress": <snapshot>}
// (throttled to one per 100ms by a shared single-writer throttle, plus
// the final state) followed by one {"result": <response>} or
// {"error": "..."} line. Request deadlines (TimeoutMS, or the service
// default) are mapped onto the request context, which is also cancelled
// when the client disconnects.
//
// The handler is hardened for unattended serving: panics are contained to
// the crashing request (500, server survives, no slot leaks), request
// bodies are capped at Config.MaxBodyBytes (413 beyond), saturation sheds
// load with 429 + Retry-After instead of parking requests unbounded, and
// a deadline that expires mid-sweep degrades to the incumbents-so-far
// table marked "partial": true rather than a bare 504.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Health())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if !s.decodeRequest(w, r, &req) {
			return
		}
		if wantsStream(r) {
			streamSearch(r.Context(), w, s, req)
			return
		}
		resp, err := s.Search(r.Context(), req)
		writeResult(w, resp, err)
	})
	mux.HandleFunc("/v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		var req SimulateRequest
		if !s.decodeRequest(w, r, &req) {
			return
		}
		resp, err := s.Simulate(r.Context(), req)
		writeResult(w, resp, err)
	})
	mux.HandleFunc("/v1/figures", func(w http.ResponseWriter, r *http.Request) {
		var req FigureRequest
		if !s.decodeRequest(w, r, &req) {
			return
		}
		if wantsStream(r) {
			streamFigures(r.Context(), w, s, req)
			return
		}
		resp, err := s.Figures(r.Context(), req)
		writeResult(w, resp, err)
	})
	return recoverMiddleware(injectHandler(s, mux))
}

// recoverMiddleware contains handler panics: the crashing request gets a
// 500 (when its headers are still unsent) and the server — and every other
// in-flight request — survives. Semaphore slots are released by the
// panicking goroutine's own defers on the way up, so a crashing job leaks
// nothing. http.ErrAbortHandler passes through: it is net/http's own
// abort protocol, not a crash.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				if !tw.wrote {
					writeError(tw, fmt.Errorf("internal error: %v", rec))
				}
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether a response has started, so the panic
// handler knows if a 500 can still be delivered.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so NDJSON streaming keeps
// working through the middleware wrap.
func (t *trackingWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		t.wrote = true
		f.Flush()
	}
}

// injectHandler consults the chaos injector at request admission, before
// the service method runs. An injected Error is a transient 503 with a
// Retry-After hint (what a retrying client must recover from); Panic
// exercises recoverMiddleware; Delay stalls admission.
func injectHandler(s *Service, next http.Handler) http.Handler {
	if s.cfg.Injector == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := s.handlerArrivals.Add(1) - 1
		if f, ok := s.cfg.Injector.At(fault.Handler, int(n)); ok {
			switch f.Kind {
			case fault.Panic:
				panic(fmt.Sprintf("injected handler fault (arrival %d)", n))
			case fault.Delay:
				if fault.SleepCtx(r.Context(), f.Sleep) != nil {
					return
				}
			case fault.Error:
				w.Header().Set("Retry-After", "1")
				writeStatusError(w, http.StatusServiceUnavailable,
					fmt.Errorf("%w: %v", ErrTransient, f.Err))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// decodeRequest parses a POST body into req, writing the error response
// itself when parsing fails. The body is capped at Config.MaxBodyBytes;
// oversize requests get 413.
func (s *Service) decodeRequest(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	body := r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeStatusError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, badRequestf("decoding request body: %v", err))
		return false
	}
	return true
}

// status maps an execution error onto an HTTP status.
func status(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrTransient):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is written into the void.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	code := status(err)
	if code == http.StatusTooManyRequests {
		// Load shedding carries the server's backoff hint; clients honor
		// it over their own exponential schedule.
		secs := int64(1)
		if hint := RetryAfterHint(err); hint > 0 {
			secs = int64((hint + time.Second - 1) / time.Second)
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeStatusError(w, code, err)
}

func writeStatusError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeResult(w http.ResponseWriter, resp any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// wantsStream reports whether the search request asked for NDJSON
// progress streaming.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// progressThrottle limits how often progress lines are emitted; the final
// snapshot always flushes so the client sees the 100% state.
const progressThrottle = 100 * time.Millisecond

// ndjsonStream is the single-writer NDJSON throttle every streaming
// endpoint shares. Progress snapshots — produced on job or worker
// goroutines — park behind a mutex; one writer goroutine drains the
// latest at most every progressThrottle, and finish emits the parked
// terminal snapshot before the result line. All writes happen on the
// writer or request goroutine, never on a producer.
type ndjsonStream[T any] struct {
	enc     *json.Encoder
	flusher http.Flusher

	mu     sync.Mutex
	latest T
	dirty  bool

	done       chan struct{}
	writerDone chan struct{}
}

// startNDJSON sets the streaming content type and starts the throttled
// writer goroutine. Callers must end the stream with finish.
func startNDJSON[T any](w http.ResponseWriter) *ndjsonStream[T] {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	st := &ndjsonStream[T]{
		enc:        json.NewEncoder(w),
		flusher:    flusher,
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	go st.writer()
	return st
}

func (st *ndjsonStream[T]) emit(line any) {
	st.enc.Encode(line)
	if st.flusher != nil {
		st.flusher.Flush()
	}
}

func (st *ndjsonStream[T]) writer() {
	defer close(st.writerDone)
	ticker := time.NewTicker(progressThrottle)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			st.flush()
		case <-st.done:
			st.flush() // the terminal snapshot, so the client sees 100%
			return
		}
	}
}

func (st *ndjsonStream[T]) flush() {
	st.mu.Lock()
	snap, emitNow := st.latest, st.dirty
	st.dirty = false
	st.mu.Unlock()
	if emitNow {
		st.emit(map[string]T{"progress": snap})
	}
}

// update parks the newest snapshot for the writer; safe to call from any
// goroutine, returns immediately.
func (st *ndjsonStream[T]) update(snap T) {
	st.mu.Lock()
	st.latest, st.dirty = snap, true
	st.mu.Unlock()
}

// finish drains the writer and emits the terminal line: the result on
// success, {"error": ...} on failure.
func (st *ndjsonStream[T]) finish(result any, err error) {
	close(st.done)
	<-st.writerDone
	if err != nil {
		st.emit(map[string]string{"error": err.Error()})
		return
	}
	st.emit(result)
}

// streamSearch runs the search with live NDJSON pruning-counter progress.
func streamSearch(ctx context.Context, w http.ResponseWriter, s *Service, req SearchRequest) {
	st := startNDJSON[search.ProgressSnapshot](w)
	resp, err := s.SearchStream(ctx, req, st.update)
	st.finish(map[string]SearchResponse{"result": resp}, err)
}

// streamFigures runs figure regeneration with live NDJSON artifact-level
// progress, on the same throttle.
func streamFigures(ctx context.Context, w http.ResponseWriter, s *Service, req FigureRequest) {
	st := startNDJSON[FigureProgress](w)
	resp, err := s.FiguresStream(ctx, req, st.update)
	st.finish(map[string]FigureResponse{"result": resp}, err)
}
