package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// queryStatus posts one /v1/query for p's labels a and b.
func queryStatus(t *testing.T, ts *httptest.Server, p *syntax.Program, mode, a, b string) (int, []byte) {
	t.Helper()
	hash := p.Hash()
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		QueryRequest{ProgramHash: hex.EncodeToString(hash[:]), Mode: mode, A: a, B: b})
	return status, data
}

// checkQueryable queries p under mode for three partners of every
// label and about as many pairs of E(main).M, and requires each
// verdict to equal a from-scratch analysis's, with both verdicts
// among the answers.
func checkQueryable(t *testing.T, ts *httptest.Server, p *syntax.Program, mode string) {
	t.Helper()
	m := constraints.ContextSensitive
	if mode == "ci" {
		m = constraints.ContextInsensitive
	}
	res, err := engine.MustNew(engine.Config{CacheSize: -1}).Analyze(engine.Job{Program: p, Mode: m})
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Labels)
	var pairs [][2]int
	for i := 0; i < n; i++ {
		pairs = append(pairs, [2]int{i, i}, [2]int{i, (7*i + 3) % n}, [2]int{i, (13*i + 5) % n})
	}
	mhpPairs := res.M.Pairs()
	for k := 0; k < len(mhpPairs); k += max(1, len(mhpPairs)/n) {
		pairs = append(pairs, mhpPairs[k])
	}
	seen := map[bool]bool{}
	for _, ij := range pairs {
		a, b := p.Labels[ij[0]].Name, p.Labels[ij[1]].Name
		status, data := queryStatus(t, ts, p, mode, a, b)
		if status != http.StatusOK {
			t.Fatalf("query(%s, %s): status %d: %s", a, b, status, data)
		}
		var resp QueryResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		if want := res.M.Has(ij[0], ij[1]); resp.MHP != want {
			t.Fatalf("query(%s, %s) = %v, a from-scratch analysis says %v", a, b, resp.MHP, want)
		}
		seen[resp.MHP] = true
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("the sampled verdicts are all %v; the check is vacuous", seen[true])
	}
}

// TestQueryAnswersEveryAnalyzePath: a program is queryable right after
// each way of analyzing it — /v1/analyze, a /v1/batch slot and a
// /v1/delta edit — because each leaves it in the engine's program
// cache, the store /v1/query reads.
func TestQueryAnswersEveryAnalyzePath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	prog := func(name string) *syntax.Program { return mustWorkload(t, name).Program() }

	t.Run("analyze", func(t *testing.T) {
		p := prog("series")
		if status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: syntax.Print(p)}); status != http.StatusOK {
			t.Fatalf("analyze: status %d: %s", status, data)
		}
		checkQueryable(t, ts, p, "cs")
	})

	t.Run("batch", func(t *testing.T) {
		progs := []*syntax.Program{prog("sor"), prog("mapreduce")}
		req := BatchRequest{Mode: "ci"}
		for _, p := range progs {
			req.Programs = append(req.Programs, BatchProgram{Source: syntax.Print(p)})
		}
		if status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/batch", req); status != http.StatusOK {
			t.Fatalf("batch: status %d: %s", status, data)
		}
		for _, p := range progs {
			checkQueryable(t, ts, p, "ci")
			// The slot was analyzed context-insensitively only.
			if status, data := queryStatus(t, ts, p, "cs", p.Labels[0].Name, p.Labels[0].Name); status != http.StatusNotFound {
				t.Errorf("context-sensitive query of a ci-only program: status %d, want 404: %s", status, data)
			}
		}
	})

	t.Run("delta", func(t *testing.T) {
		base := prog("crypt")
		edited := progen.MutateMethod(base, 0, 9)
		for i, p := range []*syntax.Program{base, edited} {
			status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: "q", Source: syntax.Print(p)})
			if status != http.StatusOK {
				t.Fatalf("delta %d: status %d: %s", i, status, data)
			}
			var dr DeltaResponse
			if err := json.Unmarshal(data, &dr); err != nil {
				t.Fatal(err)
			}
			if i == 1 && (dr.Delta == nil || dr.Cached) {
				t.Fatalf("the edit was not solved incrementally: %s", data)
			}
		}
		checkQueryable(t, ts, edited, "cs")
	})
}

// TestQueryForgetsEvictedPrograms: the queryable programs are exactly
// the program cache's entries, so with room for one program, analyzing
// B evicts A and a query for A is a 404 that asks for a new analysis.
func TestQueryForgetsEvictedPrograms(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 1})
	a, b := progen.Generate(1, progen.Default()), progen.Generate(2, progen.Default())
	for _, p := range []*syntax.Program{a, b} {
		if status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: syntax.Print(p)}); status != http.StatusOK {
			t.Fatalf("analyze: status %d: %s", status, data)
		}
	}
	status, data := queryStatus(t, ts, a, "cs", a.Labels[0].Name, a.Labels[0].Name)
	var er ErrorResponse
	if status != http.StatusNotFound || json.Unmarshal(data, &er) != nil || er.Error.Kind != "not_found" {
		t.Errorf("query of the evicted program: status %d, want 404 not_found: %s", status, data)
	}
	if status, data := queryStatus(t, ts, b, "cs", b.Labels[0].Name, b.Labels[0].Name); status != http.StatusOK {
		t.Errorf("query of the cached program: status %d, want 200: %s", status, data)
	}
}

// TestQueryLeavesCacheCountersAlone: /v1/query reads the program cache
// without counting a hit or a miss, found or not, so /metrics
// cache.programHits and programMisses count analyses only.
func TestQueryLeavesCacheCountersAlone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	counters := func() (hits, misses float64) {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Cache struct{ ProgramHits, ProgramMisses float64 }
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("/metrics is not JSON: %v", err)
		}
		return m.Cache.ProgramHits, m.Cache.ProgramMisses
	}
	p := progen.Generate(1, progen.Default())
	analyze := func() {
		if status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: syntax.Print(p)}); status != http.StatusOK {
			t.Fatalf("analyze: status %d: %s", status, data)
		}
	}
	analyze()
	if h, m := counters(); h != 0 || m != 1 {
		t.Fatalf("after one analysis: %v hits / %v misses, want 0 / 1", h, m)
	}
	unknown := progen.Generate(2, progen.Default())
	for i := 0; i < 5; i++ {
		if status, data := queryStatus(t, ts, p, "cs", p.Labels[i].Name, p.Labels[0].Name); status != http.StatusOK {
			t.Fatalf("query: status %d: %s", status, data)
		}
		if status, data := queryStatus(t, ts, unknown, "cs", "x", "y"); status != http.StatusNotFound {
			t.Fatalf("query of an unknown program: status %d: %s", status, data)
		}
	}
	if h, m := counters(); h != 0 || m != 1 {
		t.Errorf("after ten queries: %v hits / %v misses, want 0 / 1", h, m)
	}
	analyze()
	if h, m := counters(); h != 1 || m != 1 {
		t.Errorf("after a repeat analysis: %v hits / %v misses, want 1 / 1", h, m)
	}
}

// TestQueryOutlivesManySmallPrograms: the default cache is bounded by
// 1024 entries and by the bytes its results retain, so a small program
// is still queryable hundreds of small analyses later; a bound of 128
// entries would have evicted it.
func TestQueryOutlivesManySmallPrograms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := syntax.Print(mustWorkload(t, "mapreduce").Program())
	var first AnalyzeResponse
	for i := 0; i < 600; i++ {
		src := fmt.Sprintf("%s\nvoid unique%d() {\n  u%d: skip;\n}\n", base, i, i)
		status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
		if status != http.StatusOK {
			t.Fatalf("analyze %d: status %d: %s", i, status, data)
		}
		if i == 0 {
			if err := json.Unmarshal(data, &first); err != nil {
				t.Fatal(err)
			}
		}
	}
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{ProgramHash: first.ProgramHash, A: "u0", B: "u0"})
	if status != http.StatusOK {
		t.Errorf("query of the first of 600 small programs: status %d, want 200: %s", status, data)
	}
}
