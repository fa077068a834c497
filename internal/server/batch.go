package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/syntax"
)

// handleBatch analyzes N programs under one admission slot.
//
// Shape of the work: parse everything first (parse failures fill
// their result slots and never touch admission), dedup
// content-identical programs within the batch, then — holding a
// single worker slot — solve each distinct program through the same
// flight mechanism /v1/analyze uses, so a batch member still
// coalesces with concurrent interactive requests for the same
// program. Solves run sequentially within the batch: the batch owns
// one slot, so it gets one worker's worth of throughput, which is
// exactly the starvation-resistance the endpoint exists for.
//
// Results are deterministic and input-ordered. Engine results are
// deterministic per program, so a batch response is byte-stable for a
// given corpus regardless of in-batch dedup or cross-request
// coalescing.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	mode, ok := parseModeStr(req.Mode)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown mode %q (want cs or ci)", req.Mode))
		return
	}
	if len(req.Programs) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "programs must be non-empty")
		return
	}
	if len(req.Programs) > s.cfg.MaxBatchPrograms {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d programs exceeds the limit of %d", len(req.Programs), s.cfg.MaxBatchPrograms))
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}

	// Parse phase: static input errors are per-slot results, not
	// request failures — a corpus with one broken file still gets the
	// other N-1 reports. Each program parses under its own language
	// (falling back to the batch-wide one), so a mixed X10/Go corpus
	// is one batch.
	results := make([]BatchResult, len(req.Programs))
	parsed := make([]*syntax.Program, len(req.Programs))
	anyValid := false
	for i, bp := range req.Programs {
		results[i].Name = bp.Name
		lang := bp.Language
		if lang == "" {
			lang = req.Language
		}
		p, _, perr := parseSourceLang(bp.Source, lang)
		if perr != nil {
			results[i].Error = &ErrorDetail{Kind: perr.kind, Message: perr.msg}
			continue
		}
		parsed[i] = p
		anyValid = true
	}
	if !anyValid {
		// Nothing to solve; skip admission entirely.
		writeJSON(w, http.StatusOK, BatchResponse{Results: results})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	enqueued := time.Now()
	if err := s.adm.acquire(ctx); err != nil {
		if err == errOverloaded {
			s.metrics.overload.Add(1)
			s.writeHandlerError(w, &handlerError{
				status: http.StatusTooManyRequests, kind: "overloaded",
				msg:   "admission queue full",
				retry: s.adm.retryAfter(time.Duration(s.solveEWMA.Load())),
			})
			return
		}
		s.metrics.canceled.Add(1)
		s.writeHandlerError(w, ctxError(err))
		return
	}
	s.metrics.queueWait.Observe(time.Since(enqueued))
	s.metrics.queueDepth.Set(s.adm.depth())
	s.metrics.inflight.Add(1)
	defer func() {
		s.metrics.inflight.Add(-1)
		s.adm.release()
		s.metrics.queueDepth.Set(s.adm.depth())
	}()

	s.metrics.batches.Add(1)
	s.metrics.batchPrograms.Add(int64(len(req.Programs)))

	// Solve phase, one admission slot for the whole loop. In-batch
	// dedup: the first occurrence of a (hash, mode) solves; later
	// occurrences reuse its result slot-for-slot.
	type outcome struct {
		res  *engine.Result
		herr *handlerError
	}
	done := make(map[flightKey]outcome)
	for i, p := range parsed {
		if p == nil {
			continue // parse error already recorded
		}
		key := flightKey{hash: p.Hash(), mode: mode}
		out, seen := done[key]
		if !seen {
			res, _, herr := s.solveOne(ctx, key, p, mode, fmt.Sprintf("batch[%d]", i))
			out = outcome{res: res, herr: herr}
			done[key] = out
		}
		if out.herr != nil {
			results[i].Error = &ErrorDetail{Kind: out.herr.kind, Message: out.herr.msg}
			continue
		}
		resp := s.analyzeResponse(out.res, false)
		results[i].Analysis = &resp
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// solveOne runs one program through the flight mechanism, assuming
// the caller already holds an admission slot.
func (s *Server) solveOne(ctx context.Context, key flightKey, p *syntax.Program, mode constraints.Mode, what string) (*engine.Result, bool, *handlerError) {
	res, err, joined := s.flights.do(ctx, key, func(fctx context.Context) (*engine.Result, error) {
		t0 := time.Now()
		r, err := s.eng.AnalyzeSafe(fctx, engine.Job{Name: what, Program: p, Mode: mode})
		s.recordSolve(r, err, time.Since(t0))
		return r, err
	})
	if joined {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		return nil, joined, s.solveError(err)
	}
	s.index.put(key, &indexed{program: res.Program, m: res.M})
	return res, joined, nil
}
