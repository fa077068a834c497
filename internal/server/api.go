package server

import (
	"fx10/internal/engine"
	"fx10/internal/mhp"
)

// Wire types of the HTTP/JSON API. Every response body is
// deterministic for a given program state — mhp.Report is byte-stable
// by contract — so responses can be compared, cached and golden-filed.

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	// Source is the program text.
	Source string `json:"source"`
	// Language names the source language: "" or "fx10" for core FX10,
	// or any front end registered in internal/frontend ("x10", "go").
	// Non-core sources are lowered through the front-end boundary
	// before analysis.
	Language string `json:"language,omitempty"`
	// Mode is "cs" (default) or "ci".
	Mode string `json:"mode,omitempty"`
}

// AnalyzeResponse is the body of a successful /v1/analyze (and the
// report part of /v1/delta).
type AnalyzeResponse struct {
	// ProgramHash identifies the analyzed program for /v1/query and
	// equals report.programHash.
	ProgramHash string `json:"programHash"`
	// Cached is true when the engine served the solve from its
	// program cache.
	Cached bool `json:"cached"`
	// SolveMs is the engine's solve-stage wall time for the run that
	// produced the result (zero on a cache hit).
	SolveMs float64 `json:"solveMs"`
	// Report is the full MHP report.
	Report mhp.Report `json:"report"`
}

// BatchRequest is the body of POST /v1/batch: N programs analyzed
// under ONE admission slot. A corpus submission (a CI run, an editor
// workspace scan) is one unit of work to the admission queue, not N
// competing requests — so a 64-program batch cannot starve
// interactive /v1/analyze traffic the way 64 parallel posts would.
// Within the batch, content-identical programs are solved once, and a
// program already in the engine's program cache is a hit.
type BatchRequest struct {
	// Programs are analyzed in order; results come back in the same
	// order. At most 64 per request.
	Programs []BatchProgram `json:"programs"`
	// Mode applies to the whole batch: "cs" (default) or "ci".
	Mode string `json:"mode,omitempty"`
	// Language is the batch-wide default source language (see
	// AnalyzeRequest.Language); individual programs may override it.
	Language string `json:"language,omitempty"`
}

// BatchProgram is one program of a batch.
type BatchProgram struct {
	// Name is echoed back in the result slot (optional).
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
	// Language overrides the batch-wide language for this program.
	Language string `json:"language,omitempty"`
}

// BatchResponse is the body of a successful /v1/batch. The request
// succeeds as a whole even when individual programs fail to parse:
// per-program errors live in their result slots.
type BatchResponse struct {
	// Results[i] corresponds to Programs[i].
	Results []BatchResult `json:"results"`
}

// BatchResult is one program's outcome: exactly one of Error and
// Analysis is set.
type BatchResult struct {
	Name string `json:"name,omitempty"`
	// Error reports a per-program failure ("parse" kind for bad
	// source) without failing the batch.
	Error *ErrorDetail `json:"error,omitempty"`
	// Analysis is the same shape /v1/analyze returns.
	Analysis *AnalyzeResponse `json:"analysis,omitempty"`
}

// QueryRequest is the body of POST /v1/query: a may-happen-in-
// parallel question about a previously analyzed program.
type QueryRequest struct {
	ProgramHash string `json:"programHash"`
	Mode        string `json:"mode,omitempty"`
	// A and B are label display names (as reported in mhpPairs).
	A string `json:"a"`
	B string `json:"b"`
}

// QueryResponse is the verdict.
type QueryResponse struct {
	ProgramHash string `json:"programHash"`
	A           string `json:"a"`
	B           string `json:"b"`
	// MHP is Theorem 3's verdict: false means the two labels can
	// never run in parallel; true means the analysis cannot rule it
	// out.
	MHP bool `json:"mhp"`
}

// DeltaRequest is the body of POST /v1/delta: the full edited source
// of a session's program. The first request of a session pays a full
// analyze; later requests re-solve only the dirty method closure
// against the session's previous version.
type DeltaRequest struct {
	// Session names the editing session; any non-empty string.
	Session string `json:"session"`
	Source  string `json:"source"`
	// Language names the source language (see AnalyzeRequest.Language)
	// and must be consistent within a session: a delta base lowered
	// from one front end is not a valid base for another.
	Language string `json:"language,omitempty"`
	// Mode must be consistent within a session ("cs" default).
	Mode string `json:"mode,omitempty"`
}

// DeltaResponse is AnalyzeResponse plus what the incremental path
// reused.
type DeltaResponse struct {
	AnalyzeResponse
	// Delta is nil on the session's first (full) analyze.
	Delta *DeltaStats `json:"delta,omitempty"`
}

// DeltaStats mirrors engine.DeltaStats on the wire.
type DeltaStats struct {
	MethodsTotal    int      `json:"methodsTotal"`
	MethodsReused   int      `json:"methodsReused"`
	MethodsResolved int      `json:"methodsResolved"`
	DirtyMethods    []string `json:"dirtyMethods,omitempty"`
	Full            bool     `json:"full,omitempty"`
}

func deltaStatsFrom(ds *engine.DeltaStats) *DeltaStats {
	if ds == nil {
		return nil
	}
	return &DeltaStats{
		MethodsTotal:    ds.MethodsTotal,
		MethodsReused:   ds.MethodsReused,
		MethodsResolved: ds.MethodsResolved,
		DirtyMethods:    ds.DirtyMethods,
		Full:            ds.Full,
	}
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a machine-routable kind alongside the message.
// Kinds: "parse" (bad FX10 source), "analysis" (the pipeline failed
// on valid-looking input), "overloaded" (admission queue full; honour
// Retry-After), "timeout" (deadline hit), "canceled" (the client went
// away or the server closed), "bad_request", "not_found", "draining".
type ErrorDetail struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"` // "ok" or "draining"
}
