package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fx10/internal/fixtures"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// fuzzEndpoints are the POST endpoints FuzzHandlers drives; the fuzzed
// endpoint byte selects one.
var fuzzEndpoints = []string{"/v1/analyze", "/v1/batch", "/v1/query", "/v1/delta"}

// fuzzStatuses are the statuses a request body alone may produce.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusTooManyRequests:       true,
	http.StatusServiceUnavailable:    true,
	http.StatusGatewayTimeout:        true,
}

// FuzzHandlers posts an arbitrary body to one of the request-decoding
// endpoints. No body may panic the server; the status must be one the
// API documents for client input; the body must be JSON, a 200 from
// an analysis endpoint exactly its wire type's encoding
// (checkWireBytes), and any non-200 body an ErrorResponse with a kind.
func FuzzHandlers(f *testing.F) {
	mapreduce, err := workloads.Get("mapreduce")
	if err != nil {
		f.Fatal(err)
	}
	paper := []string{fixtures.Example21Source, fixtures.Example22Source, syntax.Print(mapreduce.Program())}
	seed := func(endpoint int, body any) {
		data, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(endpoint), data)
	}
	for _, src := range paper {
		seed(0, AnalyzeRequest{Source: src})
		seed(3, DeltaRequest{Session: "fuzz", Source: src, Mode: "ci"})
	}
	for _, file := range []string{"goprograms/fanout.go", "goprograms/errgroup.go", "pipeline.x10"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		lang := "go"
		if filepath.Ext(file) == ".x10" {
			lang = "x10"
		}
		seed(0, AnalyzeRequest{Source: string(src), Language: lang})
	}
	ex21 := fixtures.Example21()
	hash := ex21.Hash()
	seed(2, QueryRequest{ProgramHash: hex.EncodeToString(hash[:]), A: "S11", B: "S12"})
	seed(1, BatchRequest{Programs: []BatchProgram{{Name: "ex21", Source: fixtures.Example21Source}, {Name: "bad", Source: "void main() {"}}})
	seed(1, BatchRequest{Programs: []BatchProgram{{Name: "ex22", Source: fixtures.Example22Source}, {Name: "again", Source: fixtures.Example22Source}}})
	seed(1, BatchRequest{Programs: []BatchProgram{{Name: `"report": {}`, Source: fixtures.Example21Source}}, Mode: "ci"})

	s, err := New(Config{Workers: 1, RequestTimeout: 2 * time.Second, MaxSourceBytes: 64 << 10})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if !fuzzStatuses[rec.Code] {
			t.Fatalf("%s: status %d\nbody: %s\nresponse: %s", path, rec.Code, body, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s: response is not JSON: %s", path, rec.Body)
		}
		if rec.Code == http.StatusOK {
			if err := checkWireBytes(path, rec.Body.Bytes()); err != nil {
				t.Fatalf("%v\nbody: %s", err, body)
			}
			return
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Kind == "" {
			t.Fatalf("%s: status %d body is not an ErrorResponse with a kind (%v): %s", path, rec.Code, err, rec.Body)
		}
	})
}
