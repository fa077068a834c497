// Package server is the MHP analysis service: the engine of
// internal/engine behind an HTTP/JSON API, shaped for the ROADMAP's
// always-on deployment rather than one-shot CLI runs.
//
// Request path:
//
//		admission → solve → cache → respond
//
//	  - admission: a bounded worker pool with an explicit wait queue;
//	    a full queue is answered 429 + Retry-After immediately.
//	  - solve: one engine call (engine.AnalyzeCtx, or
//	    engine.AnalyzeDeltaCtx for a session's edit) on the request's
//	    own context, inside the admission slot the request took —
//	    client disconnects, deadlines and Close cancel mid-fixpoint via
//	    the solver's cancellation checkpoints, the handler returns only
//	    once the engine has, and the engine contains panics on
//	    malformed programs per request.
//	  - cache: the engine's program cache makes repeat analyses hits,
//	    and it is the daemon's one record of an analyzed program:
//	    /v1/query reads the cached E(main).M without admission or
//	    solving, and answers 404 once the program has been evicted.
//	  - respond: the first response for a solved program encodes its
//	    report once (engine.Encoded); every analysis response copies
//	    those bytes into its envelope (writeAnalyses).
//
// Endpoints: POST /v1/analyze, POST /v1/batch, POST /v1/query,
// POST /v1/delta, GET /healthz, GET /metrics. See api.go for wire
// types and DESIGN.md §8 for the architecture discussion.
package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/frontend"
	"fx10/internal/mhp"
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
	// CacheSize sizes the engine's program cache in programs (0 =
	// engine default, 1024); whatever the size, the cache also keeps
	// at most 128 MiB of results, evicting the least recently used.
	// The cache is also the set of programs /v1/query can answer for;
	// negative disables both, for tests that need every request to
	// solve.
	CacheSize int
	// RequestTimeout is the per-request deadline (default 10s). The
	// request's analysis runs on a context that ends then, so it also
	// caps the solve.
	RequestTimeout time.Duration
	// MaxSourceBytes bounds request bodies (default 1 MiB).
	MaxSourceBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	return c
}

// Server is the analysis service. Create with New, serve its
// Handler, and stop with Drain + Close.
type Server struct {
	cfg      Config
	eng      *engine.Engine
	adm      *admission
	sessions *sessionStore
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
		sessions:   newSessionStore(),
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

// Close cancels every in-flight solve: each request's context ends
// with the server's (requestContext). Call after the HTTP server has
// stopped accepting connections.
func (s *Server) Close() { s.baseCancel() }

// requestContext returns the context one request's analysis runs on.
// It ends at the request deadline (RequestTimeout), when the client
// disconnects, or when Close runs, whichever comes first.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

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

// handleAnalyze: parse → admission → solve → report.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	mode, err := constraints.ParseMode(req.Mode)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	p, _, perr := parseSourceLang(req.Source, req.Language)
	if perr != nil {
		s.writeHandlerError(w, perr)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()

	res, herr := s.analyze(ctx, s.scratch(p, mode, r.URL.Path))
	if herr != nil {
		s.writeHandlerError(w, herr)
		return
	}
	a, rep := s.analysis(res)
	writeAnalyses(w, a, [][]byte{rep}, false)
}

// handlerError pairs an HTTP status with an ErrorDetail.
type handlerError struct {
	status int
	kind   string
	msg    string
	retry  time.Duration // nonzero adds Retry-After
}

func (e *handlerError) Error() string { return e.msg }

// engineCall is the one engine call an analysis request makes, on
// the request's context.
type engineCall func(context.Context) (*engine.Result, error)

// scratch is the engine call that analyzes p from scratch (or serves
// it from the program cache).
func (s *Server) scratch(p *syntax.Program, mode constraints.Mode, what string) engineCall {
	return func(ctx context.Context) (*engine.Result, error) {
		return s.eng.AnalyzeCtx(ctx, engine.Job{Name: what, Program: p, Mode: mode})
	}
}

// analyze runs the shared admission → solve → cache path of every
// analysis request. The slot is released when the engine returns,
// before the report is built.
func (s *Server) analyze(ctx context.Context, call engineCall) (*engine.Result, *handlerError) {
	if s.draining.Load() {
		return nil, &handlerError{status: http.StatusServiceUnavailable, kind: "draining", msg: "server is draining"}
	}
	release, herr := s.admit(ctx)
	if herr != nil {
		return nil, herr
	}
	defer release()
	return s.solve(ctx, call)
}

// solve makes one engine call on the request's context; the caller
// holds an admission slot until it returns.
func (s *Server) solve(ctx context.Context, call engineCall) (*engine.Result, *handlerError) {
	t0 := time.Now()
	res, err := call(ctx)
	s.recordSolve(res, err, time.Since(t0))
	if err != nil {
		return nil, s.solveError(err)
	}
	return res, nil
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

// handleQuery serves MHP verdicts from the engine's program cache: no
// parsing, no solving, no admission — the cheap path the cache exists
// for. The cache holds the programs most recently analyzed or queried,
// up to CacheSize of them and 128 MiB of results, so a 404 means the
// program was never analyzed or has been evicted since; analyzing it
// again makes it queryable.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	mode, err := constraints.ParseMode(req.Mode)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var hash syntax.ProgramHash
	raw, err := hex.DecodeString(req.ProgramHash)
	if err != nil || len(raw) != len(hash) {
		s.writeError(w, http.StatusBadRequest, "bad_request", "programHash must be 64 hex characters")
		return
	}
	copy(hash[:], raw)
	res, ok := s.eng.Cached(hash, mode)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not_found", "unknown program hash; POST /v1/analyze first")
		return
	}
	la, okA := res.Program.LabelByName(req.A)
	lb, okB := res.Program.LabelByName(req.B)
	if !okA || !okB {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown label %q or %q", req.A, req.B))
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		ProgramHash: req.ProgramHash,
		A:           req.A,
		B:           req.B,
		MHP:         res.M.Has(int(la), int(lb)),
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
	mode, err := constraints.ParseMode(req.Mode)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
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

	ctx, cancel := s.requestContext(r)
	defer cancel()

	sess, ok := s.sessions.get(req.Session, mode, lang)
	if !ok {
		// The session exists under another mode or front end: its base
		// result is a solution of that configuration's constraint
		// system, unusable as a delta base here. Rejecting (rather than
		// silently reusing the session's) keeps the request
		// authoritative.
		s.writeError(w, http.StatusBadRequest, "bad_request", "mode or language differs from the session's")
		return
	}
	s.metrics.sessions.Set(int64(s.sessions.len()))

	// Serialize edits within the session; the base advances edit by
	// edit. The lock is held across the solve on purpose: delta
	// against a moving base is undefined.
	sess.mu.Lock()
	defer sess.mu.Unlock()

	// A session's first request analyzes from scratch; later ones
	// re-solve only what changed since the session's base.
	call := s.scratch(p, mode, "session:"+req.Session)
	if base := sess.base; base != nil {
		call = func(ctx context.Context) (*engine.Result, error) { return s.eng.AnalyzeDeltaCtx(ctx, base, p) }
	}
	res, herr := s.analyze(ctx, call)
	if herr != nil {
		s.writeHandlerError(w, herr)
		return
	}
	sess.base = res
	a, rep := s.analysis(res)
	writeAnalyses(w, deltaJSON{a, deltaStatsFrom(res.Stats.Delta)}, [][]byte{rep}, false)
}

// readJSON decodes a POST body with limits, writing the error
// response itself on failure.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "bad_request", "use POST")
		return false
	}
	body, err := readBody(r, s.cfg.MaxSourceBytes)
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

// readBody reads r's body once and returns at most limit+1 bytes of
// it, so that a body over the limit shows as longer than the limit.
// A declared Content-Length sizes the buffer: one allocation, with a
// byte to spare for reading the end. A chunked body, or one without a
// length, grows the buffer as io.ReadAll does.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, limit) + 1
	}
	buf := make([]byte, 0, size)
	body := &io.LimitedReader{R: r.Body, N: limit + 1}
	for {
		if len(buf) == cap(buf) {
			if body.N == 0 {
				return buf, nil
			}
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// parseSourceLang builds the request's program with frontend.Program
// and maps its failures onto responses. The returned lang is
// canonical ("fx10", "x10" or "go") and keys delta sessions. An
// unknown language is a 400 — the request itself is malformed — while
// source that fails to parse, to lower or the clock-use check under a
// known language is a 422 of kind "parse", exactly like bad core FX10.
func parseSourceLang(source, language string) (*syntax.Program, string, *handlerError) {
	p, lang, err := frontend.Program(language, "", source)
	if err != nil {
		var ue *frontend.UnknownLanguageError
		if errors.As(err, &ue) {
			return nil, lang, &handlerError{status: http.StatusBadRequest, kind: "bad_request", msg: err.Error()}
		}
		return nil, lang, &handlerError{status: http.StatusUnprocessableEntity, kind: "parse", msg: err.Error()}
	}
	return p, lang, nil
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
	_ = newEncoder(w).Encode(v)
}

// newEncoder is the encoder every response body is written with: two
// spaces of indentation per level.
func newEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc
}

// analysisJSON, deltaJSON, batchJSON and batchResultJSON mirror
// AnalyzeResponse, DeltaResponse, BatchResponse and BatchResult with
// each report left as the placeholder {}, which writeAnalyses fills.
type analysisJSON struct {
	ProgramHash string          `json:"programHash"`
	Cached      bool            `json:"cached"`
	SolveMs     float64         `json:"solveMs"`
	Report      json.RawMessage `json:"report"`
}

type deltaJSON struct {
	analysisJSON
	Delta *DeltaStats `json:"delta,omitempty"`
}

type batchJSON struct {
	Results []batchResultJSON `json:"results"`
}

type batchResultJSON struct {
	Name     string        `json:"name,omitempty"`
	Error    *ErrorDetail  `json:"error,omitempty"`
	Analysis *analysisJSON `json:"analysis,omitempty"`
}

// placeholder is a report's place in an encoded mirror. Inside a JSON
// string every quote is escaped, so it cannot match a name or an
// error message.
var placeholder = []byte(`"report": {}`)

// batchPad indents a report for a batch slot, three levels deeper
// (results, slot, analysis) than in an /v1/analyze body.
var batchPad = []byte("\n      ")

// analysis returns res's response with a placeholder report, and the
// report's bytes, which the engine keeps once encoded.
func (s *Server) analysis(res *engine.Result) (analysisJSON, []byte) {
	hash := res.Program.Hash()
	a := analysisJSON{ProgramHash: hex.EncodeToString(hash[:]), Cached: res.Stats.CacheHit, Report: json.RawMessage("{}")}
	if !res.Stats.CacheHit {
		a.SolveMs = float64(res.Stats.Solve.Nanoseconds()) / 1e6
	}
	return a, s.eng.Encoded(res, encodeReport)
}

// encodeReport renders res's report as it sits in an /v1/analyze body,
// one level deep.
func encodeReport(res *engine.Result) []byte {
	return mhp.FromEngine(res).ReportJSON("  ")
}

// writeAnalyses writes a 200 of mirror with reports[i] in its i-th
// placeholder: byte for byte what writeJSON writes for the wire type,
// without rebuilding or re-indenting a report. A batch indents each
// report for its slot.
func writeAnalyses(w http.ResponseWriter, mirror any, reports [][]byte, batch bool) {
	var buf bytes.Buffer
	_ = newEncoder(&buf).Encode(mirror)
	body := buf.Bytes()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	for _, rep := range reports {
		at := bytes.Index(body, placeholder) + len(placeholder) - len("{}")
		_, _ = w.Write(body[:at])
		if batch {
			rep = bytes.ReplaceAll(rep, batchPad[:1], batchPad)
		}
		_, _ = w.Write(rep)
		body = body[at+len("{}"):]
	}
	_, _ = w.Write(body)
}
