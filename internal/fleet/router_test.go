package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"fx10/internal/server"
)

// startDaemon serves a real fx10d handler behind httptest and counts
// the requests that reach it.
func startDaemon(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	var served atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts, &served
}

// startHop serves a hop to backend behind httptest.
func startHop(t *testing.T, backend string) *httptest.Server {
	t.Helper()
	rt, err := NewRouter(RouterConfig{Backends: []string{backend}})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return ts
}

type answer struct {
	status      int
	contentType string
	body        []byte
}

func post(t *testing.T, url, body string) answer {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return answer{resp.StatusCode, resp.Header.Get("Content-Type"), data}
}

// TestRouterResponsesBitIdentical: each answer relayed through the hop
// equals the daemon's direct answer byte for byte in status,
// Content-Type and body.
func TestRouterResponsesBitIdentical(t *testing.T) {
	daemon, _ := startDaemon(t)
	hop := startHop(t, daemon.URL)
	const analyze = `{"source": "array 4;\nvoid main() { F: finish { A: async { W: a[1] = 1; } B: async { V: a[2] = 1; } } }"}`
	// The first analyze solves and reports solveMs; every later one is
	// a cache hit with the same bytes.
	post(t, daemon.URL+"/v1/analyze", analyze)
	for _, c := range []struct {
		name, path, body string
		status           int
		has              string // in the direct answer's body
	}{
		{"analyze", "/v1/analyze", analyze, http.StatusOK, `"mhpPairs"`},
		{"unknown hash", "/v1/query", `{"programHash": "` + strings.Repeat("0", 64) + `", "a": "W", "b": "V"}`, http.StatusNotFound, `"not_found"`},
		{"malformed body", "/v1/analyze", `{not json`, http.StatusBadRequest, `"bad_request"`},
	} {
		direct := post(t, daemon.URL+c.path, c.body)
		relayed := post(t, hop.URL+c.path, c.body)
		if direct.status != c.status || !bytes.Contains(direct.body, []byte(c.has)) {
			t.Fatalf("%s: direct answer %d, want %d with %s:\n%s", c.name, direct.status, c.status, c.has, direct.body)
		}
		if relayed.status != direct.status || relayed.contentType != direct.contentType || !bytes.Equal(relayed.body, direct.body) {
			t.Errorf("%s: relayed answer differs from direct:\n%d %q\n%s\n---\n%d %q\n%s", c.name,
				relayed.status, relayed.contentType, relayed.body, direct.status, direct.contentType, direct.body)
		}
	}
}

// TestRouterRejectsOversizedBody: a body over the hop's bound gets 413
// and never reaches the backend.
func TestRouterRejectsOversizedBody(t *testing.T) {
	daemon, served := startDaemon(t)
	hop := startHop(t, daemon.URL)
	got := post(t, hop.URL+"/v1/analyze", strings.Repeat(" ", maxBody+1))
	if got.status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413:\n%s", got.status, got.body)
	}
	if n := served.Load(); n != 0 {
		t.Errorf("oversized body: backend saw %d requests, want 0", n)
	}
}

// TestRouterUnreachableBackend: a backend that cannot be reached gives
// 502.
func TestRouterUnreachableBackend(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	hop := startHop(t, gone.URL)
	if got := post(t, hop.URL+"/v1/analyze", `{}`); got.status != http.StatusBadGateway {
		t.Errorf("closed backend: status %d, want 502:\n%s", got.status, got.body)
	}
}

// TestNewRouterRejectsBackends: the hop needs exactly one absolute
// http(s) URL.
func TestNewRouterRejectsBackends(t *testing.T) {
	for _, backends := range [][]string{
		nil,
		{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		{""},
		{"127.0.0.1:1"},
	} {
		if _, err := NewRouter(RouterConfig{Backends: backends}); err == nil {
			t.Errorf("NewRouter(%q) accepted", backends)
		}
	}
}
