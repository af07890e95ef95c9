// Package server implements actuaryd's HTTP face over the wire
// protocol defined in the root package: batch evaluation, scenario
// streaming with bounded back-pressure, question discovery, health
// and metrics. The package is transport glue only — every evaluation
// flows through an ordinary *actuary.Session, so a server process
// behaves exactly like an in-process caller of the library.
//
// Endpoints:
//
//	POST /v1/evaluate   JSON array of wire Requests in, array of Results out
//	POST /v1/stream     scenario JSON (ScenarioConfig) in, NDJSON Results out
//	GET  /v1/questions  the evaluation API, self-described
//	GET  /healthz       liveness
//	GET  /metrics       Prometheus text: back-pressure counters
//	GET  /v1/metricz    the same counters as one canonical-JSON snapshot
//
// /v1/stream accepts exactly the scenario files cmd/actuary -scenario
// reads (ReadScenarioConfig), compiled through ScenarioConfig.Source
// into a lazy request stream: the sweep grids are never materialized,
// and the in-flight bound plus the client's read pace are the only
// buffering between generation and the socket. A scenario "resume"
// field switches the response to index-ordered delivery from the
// given position, so a client that lost its connection can continue
// the NDJSON from the last line it durably received.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"sort"
	"strings"

	"chipletactuary"
)

// DefaultMaxBodyBytes bounds request bodies (32 MiB — far beyond any
// reasonable scenario, small enough to shed abuse).
const DefaultMaxBodyBytes = 32 << 20

// Option configures a Server.
type Option func(*Server)

// WithInFlight bounds how many requests a /v1/stream response may
// have queued or evaluating ahead of the client's read position (see
// actuary.StreamInFlight). The default is the session's own default,
// twice the worker count.
func WithInFlight(n int) Option {
	return func(s *Server) { s.inFlight = n }
}

// WithMaxBodyBytes overrides the request body limit.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) { s.maxBody = n }
}

// Server serves the wire protocol over one shared Session.
type Server struct {
	session  *actuary.Session
	inFlight int
	maxBody  int64
	mux      *http.ServeMux
}

// New builds a Server around an existing Session. The Session is
// shared: its worker pool and metrics serve every connection.
func New(session *actuary.Session, opts ...Option) *Server {
	s := &Server{session: session, maxBody: DefaultMaxBodyBytes}
	for _, opt := range opts {
		opt(s)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/questions", s.handleQuestions)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/metricz", s.handleMetricz)
	s.mux = mux
	return s
}

// Session returns the session the server evaluates on.
func (s *Server) Session() *actuary.Session { return s.session }

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// writeError emits an actuary.ErrorBody — the wire shape of a
// transport-level failure (malformed body, oversized payload, a
// scenario that does not compile) — with the given status. Evaluation
// failures never take this path: they travel per-request inside
// Result.error with HTTP 200, because one bad request must not fail
// its batch.
func writeError(w http.ResponseWriter, status int, code actuary.ErrorCode, msg string) {
	body := actuary.ErrorBody{Error: actuary.ErrorBodyDetail{Code: code.String(), Message: msg}}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// readBody drains the request body under the configured limit.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(*http.MaxBytesError); ok {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, actuary.ErrInvalidConfig, fmt.Sprintf("reading request body: %v", err))
		return nil, false
	}
	return data, true
}

// handleEvaluate answers POST /v1/evaluate: a JSON array of wire
// requests evaluated as one batch, results in input order.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	reqs, err := actuary.DecodeRequests(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, actuary.ErrInvalidConfig, err.Error())
		return
	}
	results := s.session.Evaluate(r.Context(), reqs)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(results); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// handleStream answers POST /v1/stream: the body is a scenario
// document (the same schema cmd/actuary -scenario reads), compiled to
// a lazy request source and streamed back as NDJSON — one wire Result
// per line, in completion order. Generation is demand-driven: at most
// the in-flight bound is ever queued or evaluating ahead of the
// socket, so a slow client throttles the sweep instead of ballooning
// server memory.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	cfg, err := actuary.ReadScenarioConfig(bytes.NewReader(data))
	if err != nil {
		writeError(w, http.StatusBadRequest, actuary.ErrInvalidConfig, err.Error())
		return
	}
	// A scenario carrying a "resume" field asks for resumable delivery:
	// results come back in source-index order starting at next_index,
	// with the skipped prefix regenerated but never re-evaluated — the
	// NDJSON continues exactly where the interrupted response stopped.
	next, ordered, err := cfg.ResumeIndex()
	if err != nil {
		writeError(w, http.StatusBadRequest, actuary.ErrInvalidConfig, err.Error())
		return
	}
	src, err := cfg.Source()
	if err != nil {
		writeError(w, http.StatusBadRequest, actuary.ErrInvalidConfig, err.Error())
		return
	}
	spec := actuary.StreamSpec{InFlight: s.inFlight}
	if ordered {
		// In-stream ordering credit-limits dispatch, so a slow head
		// request stalls generation instead of ballooning a reorder
		// buffer — the back-pressure bound survives resumable delivery.
		spec.ResumeAt = next
		spec.Ordered = true
	}
	// r.Context() is canceled when the client disconnects, which stops
	// generation and drains the workers — an abandoned stream cannot
	// leak a goroutine.
	ch, err := s.session.Stream(r.Context(), src, spec.Options()...)
	if err != nil {
		writeError(w, http.StatusBadRequest, actuary.ErrInvalidConfig, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// One reused line buffer + the hand-rolled canonical marshaler keep
	// the per-result encode allocation-free; AppendResultLine's output
	// is byte-identical to what json.NewEncoder(w).Encode wrote here
	// before (proven by the root package's wire_fast tests). The pprof
	// label splits this handler's CPU from the session's evaluate and
	// deliver stages in profiles.
	pprof.Do(r.Context(), pprof.Labels("stage", "marshal"), func(context.Context) {
		var buf []byte
		for res := range ch {
			line, err := actuary.AppendResultLine(buf[:0], res)
			if err != nil {
				// A payload JSON cannot represent; nothing useful can
				// follow it on this connection. Drain so the stream's
				// workers retire cleanly.
				for range ch {
				}
				return
			}
			buf = line
			if _, err := w.Write(line); err != nil {
				// Client went away; keep draining so the stream's
				// workers retire cleanly (the canceled context stops
				// generation).
				for range ch {
				}
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	})
}

// handleQuestions answers GET /v1/questions with the evaluation API's
// self-description.
func (s *Server) handleQuestions(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(actuary.Questions())
}

// handleHealthz answers GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// handleMetrics answers GET /metrics in Prometheus text exposition
// format: the session's back-pressure counters (queue depth,
// in-flight, worker utilization, per-question latency).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.session.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	counter("actuary_streams_started_total", "Streams (and batches) started.", float64(m.StreamsStarted))
	counter("actuary_streams_completed_total", "Streams (and batches) completed.", float64(m.StreamsCompleted))
	gauge("actuary_queue_depth", "Requests waiting for a worker.", float64(m.QueueDepth))
	gauge("actuary_queue_depth_max", "High-water mark of the job queue.", float64(m.QueueDepthMax))
	gauge("actuary_queue_depth_mean", "Mean queue depth sampled at enqueue.", m.MeanQueueDepth())
	gauge("actuary_in_flight", "Requests currently being evaluated.", float64(m.InFlight))
	gauge("actuary_in_flight_max", "High-water mark of concurrent evaluations.", float64(m.InFlightMax))
	counter("actuary_worker_busy_seconds_total", "Worker time spent evaluating.", m.WorkerBusy.Seconds())
	counter("actuary_worker_seconds_total", "Total worker lifetime.", m.WorkerTime.Seconds())
	gauge("actuary_worker_utilization", "Busy share of worker lifetime, 0-1.", m.Utilization())
	gauge("actuary_workers", "Worker pool target width.", float64(s.session.Workers()))

	if len(m.PerQuestion) > 0 {
		sorted := append([]actuary.QuestionMetrics(nil), m.PerQuestion...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Question < sorted[j].Question })
		fmt.Fprintf(&b, "# HELP actuary_requests_total Requests evaluated, by question.\n# TYPE actuary_requests_total counter\n")
		for _, q := range sorted {
			fmt.Fprintf(&b, "actuary_requests_total{question=%q} %d\n", q.Question.String(), q.Count)
		}
		fmt.Fprintf(&b, "# HELP actuary_request_failures_total Failed requests, by question.\n# TYPE actuary_request_failures_total counter\n")
		for _, q := range sorted {
			fmt.Fprintf(&b, "actuary_request_failures_total{question=%q} %d\n", q.Question.String(), q.Failures)
		}
		fmt.Fprintf(&b, "# HELP actuary_request_seconds_total Evaluation time, by question.\n# TYPE actuary_request_seconds_total counter\n")
		for _, q := range sorted {
			fmt.Fprintf(&b, "actuary_request_seconds_total{question=%q} %g\n", q.Question.String(), q.TotalLatency.Seconds())
		}
		fmt.Fprintf(&b, "# HELP actuary_request_seconds_max Slowest evaluation, by question.\n# TYPE actuary_request_seconds_max gauge\n")
		for _, q := range sorted {
			fmt.Fprintf(&b, "actuary_request_seconds_max{question=%q} %g\n", q.Question.String(), q.MaxLatency.Seconds())
		}
	}

	_, _ = io.WriteString(w, b.String())
}

// handleMetricz answers GET /v1/metricz: the counters /metrics
// exposes, as one strict-decodable canonical-JSON snapshot
// (actuary.MetricsSnapshot) — the preferred probe of fleet.Monitor,
// which falls back to parsing the Prometheus text against daemons
// predating this endpoint.
func (s *Server) handleMetricz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(actuary.MetricsSnapshotNow(s.session))
}
