package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"specmpk/internal/faults"
	"specmpk/internal/otrace"
	"specmpk/internal/server/api"
)

// ServeHTTP serves the specmpkd HTTP/JSON API:
//
//	POST   /v1/jobs             submit a job spec; returns JobInfo
//	GET    /v1/jobs/{id}        job status (Result inlined once done)
//	DELETE /v1/jobs/{id}        cancel (queued: immediate; running: via ctx)
//	GET    /v1/jobs/{id}/events NDJSON progress stream (replay + live; final line carries the job)
//	GET    /v1/cache/{key}      resident result for a content-addressed key (read-only peek)
//	GET    /v1/metrics          Prometheus text exposition of server.* metrics
//	GET    /v1/healthz          liveness + diagnostics (uptime, version, pool size)
//	GET    /v1/debug/spans      span flight recorder dump (?trace= ?job= ?format=chrome)
//
// Every request runs under the middleware chain trace -> recover -> access
// log: the trace layer parses an inbound W3C traceparent header into the
// request context (so handleSubmit can root the job's trace in the caller's),
// the recover layer is the HTTP-side panic boundary, and the access log
// emits one debug-level line per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handlerOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
		mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
		mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
		mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
		mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
		mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
		mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
		mux.HandleFunc("GET /v1/debug/spans", s.handleSpans)
		s.handler = s.traceMiddleware(s.recoverMiddleware(s.accessLogMiddleware(mux)))
	})
	s.handler.ServeHTTP(w, r)
}

// traceMiddleware lifts an inbound W3C traceparent header into the request
// context. A malformed header is ignored (the job gets a fresh root trace, as
// the spec requires); no header costs one map-free header lookup.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get("traceparent"); h != "" {
			if sc, ok := otrace.ParseTraceparent(h); ok {
				r = r.WithContext(otrace.ContextWith(r.Context(), sc))
			}
		}
		next.ServeHTTP(w, r)
	})
}

// recoverMiddleware is the HTTP-side panic boundary (the worker pool has
// its own): a panicking handler answers 500 on that one request instead of
// tearing the connection down, and the daemon keeps serving. It also hosts
// the server.http.request fault point: injected errors answer a retryable
// 503, injected drops abort the connection mid-request (what a crashed
// proxy looks like to the client), injected latency stalls the response.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec) // deliberate abort: let net/http suppress it
			}
			s.panicsRecovered.Add(1)
			traceID := ""
			if sc := otrace.FromContext(r.Context()); sc.Valid() {
				traceID = sc.Trace.String()
			}
			s.logger.Error("panic serving request",
				"method", r.Method, "path", r.URL.Path, "trace_id", traceID,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			// Headers may already be gone (mid-stream panic); this is then a
			// no-op and the client sees a truncated body instead.
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
		}()
		if err := fpHTTPRequest.Fire(); err != nil {
			if faults.IsDrop(err) {
				panic(http.ErrAbortHandler)
			}
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// statusRecorder captures the response status for the access log while
// passing Flush through — the NDJSON event stream depends on it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if fl, ok := sr.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// accessLogMiddleware emits one debug-level line per request: method, path,
// status, duration, and the propagated trace ID (empty for untraced
// requests). When debug logging is off the request passes straight through —
// no wrapper allocation, no clock reads.
func (s *Server) accessLogMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.logger.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sr, r)
		traceID := ""
		if sc := otrace.FromContext(r.Context()); sc.Valid() {
			traceID = sc.Trace.String()
		}
		s.logger.Debug("http request",
			"method", r.Method, "path", r.URL.Path, "status", sr.status,
			"dur_ms", ms(time.Since(start)), "trace_id", traceID)
	})
}

type httpError struct {
	Error string `json:"error"`
}

// writeJSON answers compact JSON, so an embedded json.RawMessage such as
// JobInfo.Result reaches the client as the result store's bytes verbatim.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, httpError{Error: err.Error()})
}

// maxSubmitBytes bounds a job submission's body, and so the inline asm
// program it can carry; a larger body is answered 413.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec api.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, err)
		return
	}
	info, err := s.SubmitWith(SubmitOpts{
		Parent:    otrace.FromContext(r.Context()),
		Forwarded: r.Header.Get(api.HeaderForwarded) != "",
		Resubmit:  r.Header.Get(api.HeaderResubmit) != "",
	}, spec)
	if err != nil {
		status := submitStatus(err)
		if status == http.StatusServiceUnavailable {
			// Both overload (queue full) and drain are transient from the
			// client's point of view; tell it when to come back.
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

// submitStatus is the HTTP status a refused submit answers: 503 while the
// server is unavailable (queue full or draining), 400 for a spec it
// rejects.
func submitStatus(err error) int {
	if errors.As(err, new(ErrUnavailable)) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleEvents streams the job's events as NDJSON: the replay buffer first,
// then live events until the job finishes or the client goes away. Each line
// is one api.Event; the line with "final":true is the last, and carries the
// job's terminal status as its "job" — the JobInfo GET /v1/jobs/{id} would
// answer, result bytes included — so a client waiting on the stream needs
// no status read. The job is terminal by then: publish sets the
// execution's state before it publishes the final event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, ok := s.Subscribe(id)
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			// Stream fault point: an injected error or drop truncates the
			// stream mid-flight with no final event — the failure mode of a
			// daemon restart or a proxy timeout, which clients must survive
			// by re-polling (the replay buffer makes resubscription lossless).
			if err := fpEventsStream.Fire(); err != nil {
				return
			}
			if ev.Final {
				if info, ok := s.Job(id); ok {
					ev.Job = &info
				}
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.Registry().Snapshot().WritePrometheus(w)
}

// spansResponse is the default JSON shape of GET /v1/debug/spans.
type spansResponse struct {
	Count   int               `json:"count"`
	Dropped uint64            `json:"dropped"`
	Spans   []otrace.SpanData `json:"spans"`
}

// handleSpans dumps the span flight recorder: every completed span still
// resident in the ring, oldest first. ?trace=<hex> narrows to one trace,
// ?job=<id> resolves a job ID to its trace(s) via the job_id span attribute,
// and ?format=chrome renders Chrome trace-event JSON loadable in Perfetto
// or chrome://tracing instead of the default {count, dropped, spans} object.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeErr(w, http.StatusNotFound, errors.New("span recorder disabled (start the daemon with -span-buf > 0)"))
		return
	}
	spans := otrace.FilterSpans(s.rec.Spans(), r.URL.Query().Get("trace"), r.URL.Query().Get("job"))
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = otrace.WriteChrome(w, spans)
		return
	}
	writeJSON(w, http.StatusOK, spansResponse{
		Count:   len(spans),
		Dropped: s.rec.Dropped(),
		Spans:   spans,
	})
}

// handleCacheGet answers a content-addressed cache probe: the canonical
// result bytes verbatim when the key is resident (bit-identical replay
// across nodes is the whole point), 404 otherwise. It reads through the
// result store's peek, so probes are counted apart from the submit path's
// hit/miss statistics and never start a simulation.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, ok := s.cache.peek(key)
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("key not cached"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// handleHealthz answers the liveness probe with a diagnostic payload:
// uptime, the simulator version (which decides cache-key compatibility
// across daemons), the worker-pool size, and the instantaneous load figures
// (queue depth/capacity, jobs in flight). During drain the status flips to
// "draining" — probers treat that as "alive but do not place work here".
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, api.Healthz{
		Status:       status,
		Version:      api.Version,
		GoVersion:    runtime.Version(),
		Workers:      s.opt.Workers,
		UptimeMS:     time.Since(s.started).Milliseconds(),
		StartedAt:    s.started,
		QueueDepth:   len(s.queue),
		QueueCap:     s.opt.QueueSize,
		JobsInFlight: int(s.running.Load()),
	})
}
