package server

import (
	"fmt"
	"net/http"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/syntax"
)

// maxBatchPrograms bounds the programs accepted per /v1/batch request.
const maxBatchPrograms = 64

// handleBatch analyzes N programs under one admission slot.
//
// Shape of the work: parse everything first (parse failures fill
// their result slots and never touch admission), dedup
// content-identical programs within the batch, then — holding a
// single worker slot — run each distinct program through the same
// solve step /v1/analyze uses, on the batch request's context.
// Solves run sequentially within the batch: the batch owns one slot,
// so it gets one worker's worth of throughput, which is exactly the
// starvation-resistance the endpoint exists for.
//
// Results are deterministic and input-ordered. Engine results are
// deterministic per program, so a batch response is byte-stable for a
// given corpus regardless of in-batch dedup or program-cache hits.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	mode, err := constraints.ParseMode(req.Mode)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if len(req.Programs) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "programs must be non-empty")
		return
	}
	if len(req.Programs) > maxBatchPrograms {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d programs exceeds the limit of %d", len(req.Programs), maxBatchPrograms))
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
	results := make([]batchResultJSON, len(req.Programs))
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
		writeAnalyses(w, batchJSON{results}, nil, true)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()

	release, herr := s.admit(ctx)
	if herr != nil {
		s.writeHandlerError(w, herr)
		return
	}
	defer release()

	s.metrics.batches.Add(1)
	s.metrics.batchPrograms.Add(int64(len(req.Programs)))

	// Solve phase, one admission slot for the whole loop. In-batch
	// dedup: the first occurrence of a program solves; later
	// occurrences reuse its result slot-for-slot. The mode is
	// batch-wide, so the program hash alone is the key.
	type outcome struct {
		res  *engine.Result
		herr *handlerError
	}
	done := make(map[syntax.ProgramHash]outcome)
	var reports [][]byte
	for i, p := range parsed {
		if p == nil {
			continue // parse error already recorded
		}
		h := p.Hash()
		out, seen := done[h]
		if !seen {
			res, herr := s.solve(ctx, s.scratch(p, mode, fmt.Sprintf("batch[%d]", i)))
			out = outcome{res: res, herr: herr}
			done[h] = out
		}
		if out.herr != nil {
			results[i].Error = &ErrorDetail{Kind: out.herr.kind, Message: out.herr.msg}
			continue
		}
		a, rep := s.analysis(out.res)
		results[i].Analysis = &a
		reports = append(reports, rep)
	}
	writeAnalyses(w, batchJSON{results}, reports, true)
}
