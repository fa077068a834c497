package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

const goSource = `package main

import "sync"

func work() {}

func main() {
	var wg sync.WaitGroup
	wg.Go(func() {
		work()
	})
	work()
	wg.Wait()
}
`

const x10Source = `
void main() {
  finish {
    async { compute(); }
    compute();
  }
}
void compute() { return; }
`

// TestAnalyzeLanguages: /v1/analyze accepts any registered front end
// via the language field, and aliases resolve to the same program.
func TestAnalyzeLanguages(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hashes := map[string]string{}
	for _, tc := range []struct{ lang, src string }{
		{"go", goSource},
		{"golang", goSource}, // alias: same front end, same hash
		{"x10", x10Source},
		{"fx10", "void main() { A: async { S: skip; } T: skip; }"},
		{"", "void main() { A: async { S: skip; } T: skip; }"},
	} {
		status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze",
			AnalyzeRequest{Source: tc.src, Language: tc.lang})
		if status != http.StatusOK {
			t.Fatalf("language %q: status %d: %s", tc.lang, status, data)
		}
		resp := decodeAnalyze(t, data)
		if len(resp.Report.Pairs) == 0 {
			t.Fatalf("language %q: no MHP pairs: %s", tc.lang, data)
		}
		hashes[tc.lang] = resp.ProgramHash
	}
	if hashes["go"] != hashes["golang"] {
		t.Fatalf("alias hash mismatch: go=%s golang=%s", hashes["go"], hashes["golang"])
	}
}

// TestAnalyzeLanguageErrors: unknown languages are 400s (the request
// is malformed); bad source under a known language is a 422 of kind
// "parse", like bad core FX10.
func TestAnalyzeLanguageErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze",
		AnalyzeRequest{Source: "fn main() {}", Language: "rust"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown language: status %d, want 400: %s", status, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error.Kind != "bad_request" {
		t.Fatalf("unknown language error = %s", data)
	}

	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/analyze",
		AnalyzeRequest{Source: "void main() { skip; }", Language: "go"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("x10 source as go: status %d, want 422: %s", status, data)
	}
	if err := json.Unmarshal(data, &er); err != nil || er.Error.Kind != "parse" {
		t.Fatalf("go parse error = %s", data)
	}

	// Valid Go that the front end cannot analyze (no main) is still the
	// client's input: 422.
	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/analyze",
		AnalyzeRequest{Source: "package main\nfunc helper() {}\n", Language: "go"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("go without main: status %d, want 422: %s", status, data)
	}

	// A front end's parse error is its own message, naming its
	// language once; the 422 body is pinned byte for byte.
	for _, tc := range []struct{ lang, src, msg string }{
		{"go", "package main\nfunc main( {\n", `go: input.go:2:12: expected ')', found '{'`},
		{"x10", "void main() {\n  async {", "x10: line 2: unterminated block"},
	} {
		status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/analyze",
			AnalyzeRequest{Source: tc.src, Language: tc.lang})
		want := "{\n  \"error\": {\n    \"kind\": \"parse\",\n    \"message\": \"" + tc.msg + "\"\n  }\n}\n"
		if status != http.StatusUnprocessableEntity || string(data) != want {
			t.Errorf("malformed %s: status %d, body %q; want 422, %q", tc.lang, status, data, want)
		}
	}
}

// TestBatchMixedLanguages: one batch can carry programs of different
// front ends, with per-program overrides of the batch default.
func TestBatchMixedLanguages(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{
		Language: "x10",
		Programs: []BatchProgram{
			{Name: "x10-default", Source: x10Source},
			{Name: "go-override", Source: goSource, Language: "go"},
			{Name: "core-override", Source: "void main() { A: async { S: skip; } T: skip; }", Language: "fx10"},
			{Name: "bad-go", Source: "void nope() {}", Language: "go"},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(br.Results))
	}
	for i := 0; i < 3; i++ {
		if br.Results[i].Analysis == nil || br.Results[i].Error != nil {
			t.Fatalf("slot %d (%s): %+v", i, br.Results[i].Name, br.Results[i].Error)
		}
	}
	if br.Results[3].Error == nil || br.Results[3].Error.Kind != "parse" {
		t.Fatalf("bad-go slot: %+v", br.Results[3])
	}
}

// TestDeltaSessionLanguageMismatch: a session is (id, mode, language);
// reusing the id under another front end is a 400 and leaves the
// session intact, exactly like a mode mismatch.
func TestDeltaSessionLanguageMismatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta",
		DeltaRequest{Session: "goed", Source: goSource, Language: "go"})
	if status != http.StatusOK {
		t.Fatalf("first delta: status %d: %s", status, data)
	}

	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/delta",
		DeltaRequest{Session: "goed", Source: "void main() { A: skip; }"})
	if status != http.StatusBadRequest {
		t.Fatalf("language mismatch: status %d, want 400: %s", status, data)
	}

	// The alias is the same front end — not a mismatch — and the
	// session advances incrementally.
	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/delta",
		DeltaRequest{Session: "goed", Source: goSource, Language: "golang"})
	if status != http.StatusOK {
		t.Fatalf("alias delta: status %d: %s", status, data)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Delta == nil {
		t.Fatal("session did not advance under the alias")
	}
}
