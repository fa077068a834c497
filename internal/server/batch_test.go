package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

func decodeBatch(t *testing.T, data []byte) BatchResponse {
	t.Helper()
	var resp BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decode batch response: %v\n%s", err, data)
	}
	return resp
}

// TestBatchMatchesAnalyze: each slot of a batch carries the same
// byte-stable report a direct engine run produces, in input order,
// names echoed.
func TestBatchMatchesAnalyze(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	direct, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"series", "stream", "crypt"}
	var req BatchRequest
	for _, n := range names {
		b, err := workloads.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		req.Programs = append(req.Programs, BatchProgram{Name: n, Source: syntax.Print(b.Program())})
	}
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp := decodeBatch(t, data)
	if len(resp.Results) != len(names) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(names))
	}
	for i, n := range names {
		r := resp.Results[i]
		if r.Name != n {
			t.Fatalf("slot %d name = %q, want %q", i, r.Name, n)
		}
		if r.Error != nil || r.Analysis == nil {
			t.Fatalf("slot %d: error=%v analysis=%v", i, r.Error, r.Analysis)
		}
		b, _ := workloads.Get(n)
		want := reportJSON(t, direct, b.Program(), constraints.ContextSensitive)
		got, err := json.Marshal(r.Analysis.Report)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: batch report differs from direct engine report", n)
		}
	}
}

// TestBatchParseErrorsPerSlot: a broken program fails its slot, not
// the batch.
func TestBatchParseErrorsPerSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := BatchRequest{Programs: []BatchProgram{
		{Name: "good", Source: "void main() { skip; }"},
		{Name: "bad", Source: "void main() { $$$ }"},
		{Name: "clockmisuse", Source: "void main() { async { next; } }"},
	}}
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp := decodeBatch(t, data)
	if resp.Results[0].Error != nil || resp.Results[0].Analysis == nil {
		t.Fatalf("good slot failed: %+v", resp.Results[0])
	}
	for _, i := range []int{1, 2} {
		r := resp.Results[i]
		if r.Error == nil || r.Error.Kind != "parse" || r.Analysis != nil {
			t.Fatalf("slot %d (%s): want parse error, got %+v", i, r.Name, r)
		}
	}
}

// TestBatchDedupsIdenticalPrograms: N copies of one program are one
// engine solve; every slot still gets the full report.
func TestBatchDedupsIdenticalPrograms(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := "void main() { A: async { S: skip; } T: skip; }"
	req := BatchRequest{Programs: []BatchProgram{
		{Source: src}, {Source: src}, {Source: src}, {Source: src},
	}}
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp := decodeBatch(t, data)
	first, err := json.Marshal(resp.Results[0].Analysis.Report)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Analysis == nil {
			t.Fatalf("slot %d missing analysis", i)
		}
		got, _ := json.Marshal(r.Analysis.Report)
		if !bytes.Equal(got, first) {
			t.Fatalf("slot %d report differs within dedup group", i)
		}
	}
	if got := s.metrics.solves.Value(); got != 1 {
		t.Fatalf("engine solves = %d, want 1 (in-batch dedup)", got)
	}
	if got := s.metrics.batchPrograms.Value(); got != 4 {
		t.Fatalf("batchPrograms = %d, want 4", got)
	}
}

// TestBatchRejectsOversizeAndEmpty: request-level validation; a batch
// of maxBatchPrograms+1 programs is refused whole.
func TestBatchRejectsOversizeAndEmpty(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", status, data)
	}
	var req BatchRequest
	for i := 0; i <= maxBatchPrograms; i++ {
		req.Programs = append(req.Programs, BatchProgram{Source: "void main() { skip; }"})
	}
	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/batch", req)
	if status != http.StatusBadRequest {
		t.Fatalf("oversize batch: status %d: %s", status, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error.Kind != "bad_request" {
		t.Fatalf("oversize batch error = %s", data)
	}
}

// TestBatchAllParseErrorsSkipsAdmission: a batch with no valid
// program returns without ever taking an admission slot.
func TestBatchAllParseErrorsSkipsAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := BatchRequest{Programs: []BatchProgram{{Source: "!!"}, {Source: "void"}}}
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp := decodeBatch(t, data)
	for i, r := range resp.Results {
		if r.Error == nil {
			t.Fatalf("slot %d: expected parse error", i)
		}
	}
	if got := s.metrics.batches.Value(); got != 0 {
		t.Fatalf("batches = %d, want 0 (no admission)", got)
	}
}
