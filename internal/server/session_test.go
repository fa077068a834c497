package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// TestDeltaSessionModeMismatch: a session is (id, mode); reusing the
// id under the other mode is a 400, and the original session keeps
// working afterwards.
func TestDeltaSessionModeMismatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "void main() { A: async { S: skip; } T: skip; }"

	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta",
		DeltaRequest{Session: "ed1", Source: src, Mode: "cs"})
	if status != http.StatusOK {
		t.Fatalf("first delta: status %d: %s", status, data)
	}

	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/delta",
		DeltaRequest{Session: "ed1", Source: src, Mode: "ci"})
	if status != http.StatusBadRequest {
		t.Fatalf("mode mismatch: status %d, want 400: %s", status, data)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Error.Kind != "bad_request" {
		t.Fatalf("mode mismatch error = %s", data)
	}

	// The rejected request must not have corrupted or replaced the
	// session: the original mode continues incrementally.
	edited := "void main() { A: async { S: skip; } T: skip; U: skip; }"
	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/delta",
		DeltaRequest{Session: "ed1", Source: edited, Mode: "cs"})
	if status != http.StatusOK {
		t.Fatalf("delta after mismatch: status %d: %s", status, data)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Delta == nil {
		t.Fatal("session lost its base after a rejected mode-mismatch request")
	}
}

// TestDeltaSessionSameModeReuses: the happy path the mismatch check
// must not break — same id, same mode, session advances.
func TestDeltaSessionSameModeReuses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "void main() { A: async { S: skip; } T: skip; }"
	for i, source := range []string{src, src} {
		status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta",
			DeltaRequest{Session: "ed2", Source: source, Mode: "cs"})
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, data)
		}
		var dr DeltaResponse
		if err := json.Unmarshal(data, &dr); err != nil {
			t.Fatal(err)
		}
		if i == 0 && dr.Delta != nil {
			t.Fatal("first request of a session should be a full analyze")
		}
		if i == 1 && dr.Delta == nil {
			t.Fatal("second request did not reuse the session")
		}
	}
}

// TestDeltaSessionBaseDropsEnv: a session base holds no Env, and its
// M is the very pair set the program cache holds for that program —
// one shared E(main).M, not a copy — and the next delta still matches
// a from-scratch analysis.
func TestDeltaSessionBaseDropsEnv(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	p := mustWorkload(t, "stream").Program()
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: "lean", Source: syntax.Print(p)})
	if status != http.StatusOK {
		t.Fatalf("first delta: status %d: %s", status, data)
	}
	for i := 0; i < 2; i++ {
		sess, ok := s.sessions.get("lean", constraints.ContextSensitive, "fx10")
		if !ok {
			t.Fatalf("step %d: session lost", i)
		}
		// The handler writes base under the session lock.
		sess.mu.Lock()
		base := sess.base
		sess.mu.Unlock()
		if base == nil {
			t.Fatalf("step %d: session has no base", i)
		}
		if base.Env != nil {
			t.Fatalf("step %d: session base keeps an Env", i)
		}
		cached, ok := s.Engine().Cached(p.Hash(), constraints.ContextSensitive)
		if !ok {
			t.Fatalf("step %d: program not in the program cache", i)
		}
		if base.M == nil || base.M != cached.M {
			t.Fatalf("step %d: session base M is not the cached pair set", i)
		}
		if base.Program == nil || base.Sys == nil || base.Sol == nil {
			t.Fatalf("step %d: session base lost what AnalyzeDelta reads", i)
		}

		p = progen.MutateMethod(p, i%len(p.Methods), int64(7+i))
		status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: "lean", Source: syntax.Print(p)})
		if status != http.StatusOK {
			t.Fatalf("delta %d: status %d: %s", i, status, data)
		}
		var dr DeltaResponse
		if err := json.Unmarshal(data, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Delta == nil {
			t.Fatalf("delta %d: not served incrementally", i)
		}
		want := directMaskedReport(t, engine.MustNew(engine.Config{CacheSize: -1}), p, constraints.ContextSensitive)
		if !bytes.Equal(maskedReportJSON(t, dr.Report), want) {
			t.Fatalf("delta %d: report differs from a from-scratch analysis", i)
		}
	}
}
