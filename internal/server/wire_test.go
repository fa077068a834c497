package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// checkWireBytes checks that body, a 200 from path, is byte for byte
// what writeJSON writes for the public wire type it decodes into. The
// report is spliced into analysis bodies from bytes the engine keeps
// (writeAnalyses); this is the identity that splicing must keep. It
// returns nil for paths without a report.
func checkWireBytes(path string, body []byte) error {
	var v any
	switch path {
	case "/v1/analyze":
		v = new(AnalyzeResponse)
	case "/v1/delta":
		v = new(DeltaResponse)
	case "/v1/batch":
		v = new(BatchResponse)
	default:
		return nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: decode: %v", path, err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	want := rec.Body.Bytes()
	if bytes.Equal(body, want) {
		return nil
	}
	i := 0
	for i < len(body) && i < len(want) && body[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	return fmt.Errorf("%s: served body differs from its wire type re-encoded, at byte %d of %d (want %d)\nserved:     %q\nre-encoded: %q",
		path, i, len(body), len(want), body[lo:min(i+40, len(body))], want[lo:min(i+40, len(want))])
}

// TestWireBytesMatchWireTypes: every analysis body the server writes
// from its once-encoded reports equals the public wire type's own
// encoding, for misses and hits, both modes, a clocked program, every
// step of a delta session, and batch slots that are duplicates, cache
// hits, parse errors or named like the placeholder.
func TestWireBytesMatchWireTypes(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	post := func(path string, req any) *DeltaResponse {
		t.Helper()
		buf, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		if err := checkWireBytes(path, rec.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
		var resp DeltaResponse
		if path != "/v1/batch" {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		}
		return &resp
	}

	crypt := syntax.Print(mustWorkload(t, "crypt").Program())
	phased, err := os.ReadFile(filepath.Join("..", "..", "testdata", "phased.fx10"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{crypt, string(phased)} {
		for _, mode := range []string{"cs", "ci"} {
			for _, hit := range []bool{false, true} {
				if resp := post("/v1/analyze", AnalyzeRequest{Source: src, Mode: mode}); resp.Cached != hit {
					t.Fatalf("analyze %s: cached = %v, want %v", mode, resp.Cached, hit)
				}
			}
		}
	}
	if resp := post("/v1/analyze", AnalyzeRequest{Source: string(phased)}); resp.Report.Clocks == nil {
		t.Fatal("phased.fx10's report has no clocks section; the clocked case is vacuous")
	}

	stream := mustWorkload(t, "stream").Program()
	edit := progen.MutateMethod(stream, 0, 7)
	for i, step := range []struct {
		p             *syntax.Program
		cached, delta bool
	}{{stream, false, false}, {edit, false, true}, {stream, true, true}} {
		resp := post("/v1/delta", DeltaRequest{Session: "wire", Source: syntax.Print(step.p)})
		if resp.Cached != step.cached || (resp.Delta != nil) != step.delta {
			t.Fatalf("delta step %d: cached = %v, delta stats %v; want %v, %v", i, resp.Cached, resp.Delta != nil, step.cached, step.delta)
		}
	}

	post("/v1/batch", BatchRequest{Programs: []BatchProgram{
		{Name: "fresh", Source: syntax.Print(mustWorkload(t, "series").Program())},
		{Name: "cached", Source: crypt},
		{Name: "broken", Source: "void main() {"},
		{Name: `"report": {}`, Source: crypt},
		{Name: "fresh again", Source: syntax.Print(mustWorkload(t, "series").Program())},
	}})
	post("/v1/batch", BatchRequest{Programs: []BatchProgram{{Name: "only broken", Source: "void main() {"}}})
}
