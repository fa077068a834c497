// Package server is the MHP analysis service: the engine of
// internal/engine behind an HTTP/JSON API, shaped for the ROADMAP's
// always-on deployment rather than one-shot CLI runs.
//
// Request path:
//
//		admission → coalesce → solve → cache
//
//	  - admission: a bounded worker pool with an explicit wait queue;
//	    a full queue is answered 429 + Retry-After immediately.
//	  - coalesce: concurrent requests for the same (program hash, mode)
//	    join one in-flight solve (flight.go); the solve is cancelled
//	    only when every interested request has gone away. Duplicates of
//	    an already-running solve join it before admission — they add no
//	    work, so they never occupy a slot or queue position.
//	  - solve: engine.AnalyzeSafe on a per-flight context — client
//	    disconnects and deadlines cancel mid-fixpoint via the solver's
//	    cancellation checkpoints, and panics on malformed programs are
//	    contained per request.
//	  - cache: the engine's program cache makes repeat analyses hits;
//	    the server-side query index additionally serves /v1/query
//	    without touching the engine at all.
//
// Endpoints: POST /v1/analyze, POST /v1/batch, POST /v1/query,
// POST /v1/delta, GET /healthz, GET /metrics. See api.go for wire
// types and DESIGN.md §8 for the architecture discussion.
package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fx10/internal/condensed"
	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/frontend"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/syntax"
)

// Config configures a Server. The zero value is a usable default.
type Config struct {
	// Workers bounds concurrent solves; ≤ 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a worker before 429s
	// start; ≤ 0 selects 4 × Workers.
	QueueDepth int
	// Strategy names the engine solver strategy ("" = the engine
	// default, topo). The daemon always serves the default; tests
	// substitute registered fakes here.
	Strategy string
	// CacheSize sizes the engine's program cache (0 = engine
	// default).
	CacheSize int
	// SolveTimeout caps one engine solve regardless of waiters
	// (default 30s).
	SolveTimeout time.Duration
	// RequestTimeout is the per-request deadline (default 10s); it
	// cancels mid-solve through the flight mechanism when the request
	// is the only one interested.
	RequestTimeout time.Duration
	// MaxSourceBytes bounds request bodies (default 1 MiB).
	MaxSourceBytes int64
	// MaxSessions bounds live delta sessions (default 128).
	MaxSessions int
	// MaxIndexed bounds the /v1/query index (default 1024 programs).
	MaxIndexed int
	// MaxBatchPrograms bounds the programs accepted per /v1/batch
	// request (default 64).
	MaxBatchPrograms int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 30 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 128
	}
	if c.MaxIndexed <= 0 {
		c.MaxIndexed = 1024
	}
	if c.MaxBatchPrograms <= 0 {
		c.MaxBatchPrograms = 64
	}
	return c
}

// Server is the analysis service. Create with New, serve its
// Handler, and stop with Drain + Close.
type Server struct {
	cfg      Config
	eng      *engine.Engine
	adm      *admission
	flights  *flights
	sessions *sessionStore
	index    *queryIndex
	metrics  *Metrics
	mux      *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool

	// solveEWMA tracks a smoothed solve time in nanoseconds for the
	// Retry-After hint.
	solveEWMA atomic.Int64
}

// New builds a Server (resolving the strategy name) ready to serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	eng, err := engine.New(engine.Config{
		Strategy:  cfg.Strategy,
		Workers:   cfg.Workers,
		CacheSize: cfg.CacheSize,
	})
	if err != nil {
		return nil, err
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		eng:        eng,
		adm:        newAdmission(cfg.Workers, cfg.QueueDepth),
		flights:    newFlights(base, cfg.SolveTimeout),
		sessions:   newSessionStore(cfg.MaxSessions),
		index:      newQueryIndex(cfg.MaxIndexed),
		baseCtx:    base,
		baseCancel: cancel,
	}
	s.metrics = newMetrics(eng.CacheStats, s.adm.depth)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.HandleFunc("/v1/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("/v1/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("/v1/delta", s.instrument("delta", s.handleDelta))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.metrics)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (for publishing under /debug/vars).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Engine exposes the underlying engine (the bench/ module reads its
// cache statistics, and tests compare against direct engine calls).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Drain flips the server into draining mode: /healthz reports
// draining (so load balancers stop routing here) and new analysis
// requests are refused with 503, while requests already admitted run
// to completion. Use before shutting the HTTP listener down.
func (s *Server) Drain() { s.draining.Store(true) }

// Close cancels every in-flight solve. Call after the HTTP server has
// stopped accepting connections.
func (s *Server) Close() { s.baseCancel() }

// instrument wraps a handler with request/response counting and
// end-to-end latency observation.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.requests.Add(name, 1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.metrics.responses.Add(strconv.Itoa(sw.status()), 1)
		s.metrics.reqLatency.Observe(time.Since(start))
	}
}

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// handleAnalyze: parse → admission → coalesced solve → report.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	mode, ok := parseModeStr(req.Mode)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown mode %q (want cs or ci)", req.Mode))
		return
	}
	p, _, perr := parseSourceLang(req.Source, req.Language)
	if perr != nil {
		s.writeHandlerError(w, perr)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	res, coalesced, herr := s.analyze(ctx, p, mode, r.URL.Path)
	if herr != nil {
		s.writeHandlerError(w, herr)
		return
	}
	writeJSON(w, http.StatusOK, s.analyzeResponse(res, coalesced))
}

// handlerError pairs an HTTP status with an ErrorDetail.
type handlerError struct {
	status int
	kind   string
	msg    string
	retry  time.Duration // nonzero adds Retry-After
}

func (e *handlerError) Error() string { return e.msg }

// analyze runs the shared admission → coalesce → solve path and
// indexes the result for /v1/query.
func (s *Server) analyze(ctx context.Context, p *syntax.Program, mode constraints.Mode, what string) (*engine.Result, bool, *handlerError) {
	if s.draining.Load() {
		return nil, false, &handlerError{status: http.StatusServiceUnavailable, kind: "draining", msg: "server is draining"}
	}
	key := flightKey{hash: p.Hash(), mode: mode}

	// Duplicates of an in-flight solve coalesce before admission:
	// they add no work, so they must not occupy a worker slot or
	// queue position (8 identical requests on a 4-worker server are
	// one solve, not two).
	if f, ok := s.flights.join(key); ok {
		s.metrics.coalesced.Add(1)
		res, err := s.flights.wait(ctx, f)
		if err != nil {
			return nil, true, s.solveError(err)
		}
		s.index.put(key, &indexed{program: res.Program, m: res.M})
		return res, true, nil
	}

	release, herr := s.admit(ctx)
	if herr != nil {
		return nil, false, herr
	}
	defer release()
	return s.solveOne(ctx, key, p, mode, what)
}

// admit takes a worker slot, queueing while the admission queue has
// room. On success the caller must call release once its solve is
// done; otherwise the error is the 429 (with Retry-After) for a full
// queue or the cancellation that ended the wait.
func (s *Server) admit(ctx context.Context) (release func(), herr *handlerError) {
	enqueued := time.Now()
	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, errOverloaded) {
			s.metrics.overload.Add(1)
			return nil, &handlerError{
				status: http.StatusTooManyRequests, kind: "overloaded",
				msg:   "admission queue full",
				retry: s.adm.retryAfter(time.Duration(s.solveEWMA.Load())),
			}
		}
		s.metrics.canceled.Add(1)
		return nil, ctxError(err)
	}
	s.metrics.queueWait.Observe(time.Since(enqueued))
	s.metrics.inflight.Add(1)
	return func() {
		s.metrics.inflight.Add(-1)
		s.adm.release()
	}, nil
}

// solveError maps engine failures onto HTTP statuses.
func (s *Server) solveError(err error) *handlerError {
	var ae *engine.AnalysisError
	switch {
	case errors.As(err, &ae):
		return &handlerError{status: http.StatusInternalServerError, kind: "analysis", msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.canceled.Add(1)
		return &handlerError{status: http.StatusGatewayTimeout, kind: "timeout", msg: "analysis exceeded its deadline"}
	case errors.Is(err, context.Canceled):
		s.metrics.canceled.Add(1)
		return &handlerError{status: statusClientClosedRequest, kind: "canceled", msg: "request canceled"}
	default:
		return &handlerError{status: http.StatusInternalServerError, kind: "analysis", msg: err.Error()}
	}
}

func ctxError(err error) *handlerError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &handlerError{status: http.StatusGatewayTimeout, kind: "timeout", msg: "timed out waiting for a worker"}
	}
	return &handlerError{status: statusClientClosedRequest, kind: "canceled", msg: "request canceled while queued"}
}

// statusClientClosedRequest is nginx's conventional code for a client
// that went away; there is no exact standard status.
const statusClientClosedRequest = 499

// recordSolve accounts one engine call that took d. A program-cache
// hit is not a solve: it neither counts in solves nor feeds the
// latency histogram and the Retry-After EWMA, which would otherwise be
// diluted by microsecond "solves". A failed call did run the pipeline,
// so it counts but has no latency worth observing.
func (s *Server) recordSolve(res *engine.Result, err error, d time.Duration) {
	if err == nil && res.Stats.CacheHit {
		return
	}
	s.metrics.solves.Add(1)
	if err != nil {
		return
	}
	s.metrics.solveLatency.Observe(d)
	s.observeSolve(d)
}

// observeSolve feeds the Retry-After EWMA (α = 1/8).
func (s *Server) observeSolve(d time.Duration) {
	for {
		old := s.solveEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/8
		}
		if s.solveEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

func (s *Server) analyzeResponse(res *engine.Result, coalesced bool) AnalyzeResponse {
	rep := mhp.FromEngine(res).Report()
	solveMs := float64(res.Stats.Solve.Nanoseconds()) / 1e6
	if res.Stats.CacheHit {
		solveMs = 0
	}
	return AnalyzeResponse{
		ProgramHash: rep.ProgramHash,
		Cached:      res.Stats.CacheHit,
		Coalesced:   coalesced,
		SolveMs:     solveMs,
		Report:      rep,
	}
}

// handleQuery serves MHP verdicts from the query index: no parsing,
// no solving, no admission — the cheap path the cache exists for.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	mode, ok := parseModeStr(req.Mode)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown mode %q (want cs or ci)", req.Mode))
		return
	}
	var hash syntax.ProgramHash
	raw, err := hex.DecodeString(req.ProgramHash)
	if err != nil || len(raw) != len(hash) {
		s.writeError(w, http.StatusBadRequest, "bad_request", "programHash must be 64 hex characters")
		return
	}
	copy(hash[:], raw)
	entry, ok := s.index.get(flightKey{hash: hash, mode: mode})
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", "unknown program hash; POST /v1/analyze first")
		return
	}
	la, okA := entry.program.LabelByName(req.A)
	lb, okB := entry.program.LabelByName(req.B)
	if !okA || !okB {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown label %q or %q", req.A, req.B))
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		ProgramHash: req.ProgramHash,
		A:           req.A,
		B:           req.B,
		MHP:         entry.m.Has(int(la), int(lb)),
	})
}

// handleDelta: session-scoped incremental analysis.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req DeltaRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Session == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", "session must be non-empty")
		return
	}
	mode, ok := parseModeStr(req.Mode)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown mode %q (want cs or ci)", req.Mode))
		return
	}
	p, lang, perr := parseSourceLang(req.Source, req.Language)
	if perr != nil {
		s.writeHandlerError(w, perr)
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	sess, created, evicted, ok := s.sessions.get(req.Session, mode, lang)
	if !ok {
		// The session exists under another mode or front end: its base
		// result is a solution of that configuration's constraint
		// system, unusable as a delta base here. Rejecting (rather than
		// silently reusing the session's) keeps the request
		// authoritative.
		s.writeError(w, http.StatusBadRequest, "bad_request", "mode or language differs from the session's")
		return
	}
	_ = created
	s.metrics.sessions.Set(int64(s.sessions.len()))
	_ = evicted

	// Serialize edits within the session; the base advances edit by
	// edit. The lock is held across the solve on purpose: delta
	// against a moving base is undefined.
	sess.mu.Lock()
	defer sess.mu.Unlock()

	if sess.base == nil {
		res, coalesced, herr := s.analyze(ctx, p, mode, "session:"+req.Session)
		if herr != nil {
			s.writeHandlerError(w, herr)
			return
		}
		sess.base = res
		writeJSON(w, http.StatusOK, DeltaResponse{AnalyzeResponse: s.analyzeResponse(res, coalesced)})
		return
	}

	// Incremental path: admission still applies (a delta is a solve,
	// just a smaller one), but coalescing does not — the session's
	// base is private state.
	release, herr := s.admit(ctx)
	if herr != nil {
		s.writeHandlerError(w, herr)
		return
	}
	defer release()

	t0 := time.Now()
	res, err := s.eng.AnalyzeDeltaSafe(ctx, sess.base, p)
	s.recordSolve(res, err, time.Since(t0))
	if err != nil {
		s.writeHandlerError(w, s.solveError(err))
		return
	}

	sess.base = res
	key := flightKey{hash: p.Hash(), mode: mode}
	s.index.put(key, &indexed{program: res.Program, m: res.M})
	writeJSON(w, http.StatusOK, DeltaResponse{
		AnalyzeResponse: s.analyzeResponse(res, false),
		Delta:           deltaStatsFrom(res.Stats.Delta),
	})
}

// readJSON decodes a POST body with limits, writing the error
// response itself on failure.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "bad_request", "use POST")
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSourceBytes+1))
	if err != nil {
		s.writeError(w, statusClientClosedRequest, "canceled", "body read failed")
		return false
	}
	if int64(len(body)) > s.cfg.MaxSourceBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, "bad_request", "request body too large")
		return false
	}
	if err := json.Unmarshal(body, dst); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// parseSourceLang routes request source to a parser by language: ""
// or "fx10" is core FX10 (parsed directly, preserving label names);
// anything else resolves through the front-end registry and lowers
// via the condensed form. The returned lang is canonical ("fx10",
// "x10", "go", …) and keys delta sessions. An unknown language is a
// 400 — the request itself is malformed — while source that fails to
// parse or lower under a known language is a 422 of kind "parse",
// exactly like bad core FX10.
func parseSourceLang(source, language string) (*syntax.Program, string, *handlerError) {
	lang := strings.ToLower(strings.TrimSpace(language))
	var p *syntax.Program
	if lang == "" || lang == "fx10" {
		lang = "fx10"
		var err error
		p, err = parser.Parse(source)
		if err != nil {
			return nil, lang, &handlerError{status: http.StatusUnprocessableEntity, kind: "parse", msg: err.Error()}
		}
	} else {
		f, err := frontend.Lookup(lang)
		if err != nil {
			return nil, lang, &handlerError{status: http.StatusBadRequest, kind: "bad_request", msg: err.Error()}
		}
		lang = f.Name()
		u, _, err := f.Lower(source)
		if err != nil {
			return nil, lang, &handlerError{status: http.StatusUnprocessableEntity, kind: "parse", msg: fmt.Sprintf("%s: %v", lang, err)}
		}
		p, err = condensed.Lower(u)
		if err != nil {
			// The source parsed but describes a malformed unit
			// (duplicate methods, no entry point): still the client's
			// input, still 422.
			return nil, lang, &handlerError{status: http.StatusUnprocessableEntity, kind: "parse", msg: err.Error()}
		}
	}
	if err := syntax.CheckClockUse(p); err != nil {
		// Clock misuse (next/advance in an unclocked async) is a
		// static input error, same class as a parse failure.
		return nil, lang, &handlerError{status: http.StatusUnprocessableEntity, kind: "parse", msg: err.Error()}
	}
	return p, lang, nil
}

func parseModeStr(s string) (constraints.Mode, bool) {
	switch s {
	case "", "cs", "sensitive", "context-sensitive":
		return constraints.ContextSensitive, true
	case "ci", "insensitive", "context-insensitive":
		return constraints.ContextInsensitive, true
	}
	return 0, false
}

func (s *Server) writeHandlerError(w http.ResponseWriter, e *handlerError) {
	if e.retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((e.retry+time.Second-1)/time.Second)))
	}
	s.writeError(w, e.status, e.kind, e.msg)
}

func (s *Server) writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{Kind: kind, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
