package fx10_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/experiments"
	"fx10/internal/explore"
	"fx10/internal/fixtures"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/machine"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/runtime"
	"fx10/internal/server"
	"fx10/internal/syntax"
	"fx10/internal/types"
	"fx10/internal/workloads"
	"fx10/internal/x10"
)

// ---------------------------------------------------------------
// Worked examples (Sections 2.1, 2.2; Figure 5).

// BenchmarkExample1Inference measures end-to-end inference on the
// Section 2.1 example whose constraint system is the paper's
// Figure 5.
func BenchmarkExample1Inference(b *testing.B) {
	p := fixtures.Example21()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mhp.MustAnalyze(p, constraints.ContextSensitive)
	}
}

// BenchmarkExample2Inference measures the Section 2.2 interprocedural
// example.
func BenchmarkExample2Inference(b *testing.B) {
	p := fixtures.Example22()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mhp.MustAnalyze(p, constraints.ContextSensitive)
	}
}

// ---------------------------------------------------------------
// Figure 6: constraint generation per benchmark.

// BenchmarkConstraintGenFig6 measures Slabels fixpoint plus
// constraint generation (the static-measurement pipeline of
// Figure 6) for every benchmark.
func BenchmarkConstraintGenFig6(b *testing.B) {
	for _, wl := range workloads.All() {
		p := wl.Program()
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := labels.Compute(p)
				sys := constraints.Generate(in, constraints.ContextSensitive)
				sl, l1, l2 := sys.Counts()
				if sl == 0 || l1 == 0 || l2 == 0 {
					b.Fatal("empty system")
				}
			}
		})
	}
}

// ---------------------------------------------------------------
// Figure 7: front-end node counting per benchmark.

// BenchmarkNodeCountsFig7 measures X10-subset parsing and condensed
// node counting (the Figure 7 pipeline).
func BenchmarkNodeCountsFig7(b *testing.B) {
	for _, wl := range workloads.All() {
		src := wl.Source()
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				unit, _, err := x10.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				if unit.NodeCounts().Total == 0 {
					b.Fatal("no nodes")
				}
			}
		})
	}
}

// ---------------------------------------------------------------
// Figure 8: full context-sensitive inference per benchmark.

// BenchmarkInferenceFig8 measures the full inference pipeline
// (Slabels + generation + three-phase solving + pair
// classification), one sub-benchmark per Figure 8 row.
func BenchmarkInferenceFig8(b *testing.B) {
	for _, wl := range workloads.All() {
		p := wl.Program()
		want := wl.Paper
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := mhp.MustAnalyze(p, constraints.ContextSensitive)
				c := mhp.CountPairs(r.AsyncBodyPairs())
				if c.Total == 0 && want.PairsTotal != 0 {
					b.Fatal("no pairs")
				}
			}
		})
	}
}

// ---------------------------------------------------------------
// Figure 9: context-sensitive vs context-insensitive on mg and
// plasma.

// BenchmarkContextInsensitiveFig9 measures both analyses on the two
// large benchmarks, the Figure 9 comparison.
func BenchmarkContextInsensitiveFig9(b *testing.B) {
	for _, name := range []string{"mg", "plasma"} {
		wl, err := workloads.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		p := wl.Program()
		for _, mode := range []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive} {
			mode := mode
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mhp.MustAnalyze(p, mode)
				}
			})
		}
	}
}

// ---------------------------------------------------------------
// Ablations called out in DESIGN.md.

// BenchmarkSolverPhased is the reference strategy: the Section 5.3
// three-phase algorithm, iterating whole passes to each level's
// fixpoint.
func BenchmarkSolverPhased(b *testing.B) {
	benchSolver(b, constraints.Phased, mgProgram(b))
}

func mgProgram(b *testing.B) *syntax.Program {
	wl, err := workloads.Get("mg")
	if err != nil {
		b.Fatal(err)
	}
	return wl.Program()
}

// benchSolver measures alg on p's context-sensitive system.
func benchSolver(b *testing.B, alg constraints.Algorithm, p *syntax.Program) {
	sys := constraints.Generate(labels.Compute(p), constraints.ContextSensitive)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Solve(alg)
	}
}

// BenchmarkDirectTypeInference: inferring E by iterating the type
// rules directly (the specification) instead of solving constraints
// (the implementation technique) — the paper's "slogan" trade-off.
func BenchmarkDirectTypeInference(b *testing.B) {
	wl, err := workloads.Get("mg")
	if err != nil {
		b.Fatal(err)
	}
	in := labels.Compute(wl.Program())
	c := types.NewChecker(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Infer()
	}
}

// BenchmarkSlabelsFixpoint isolates phase 1 of the solver.
func BenchmarkSlabelsFixpoint(b *testing.B) {
	wl, err := workloads.Get("plasma")
	if err != nil {
		b.Fatal(err)
	}
	p := wl.Program()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		labels.Compute(p)
	}
}

// ---------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkMachineRun measures the formal small-step interpreter on
// the Section 2.1 example.
func BenchmarkMachineRun(b *testing.B) {
	p := fixtures.Example21()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := machine.Run(p, machine.Initial(p, nil), machine.Leftmost{}, 100000)
		if !res.Done {
			b.Fatal("did not finish")
		}
	}
}

// BenchmarkExploreExample21 measures exhaustive interleaving
// exploration (the ground-truth oracle of Section 6).
func BenchmarkExploreExample21(b *testing.B) {
	p := fixtures.Example21()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := explore.MHP(p, nil, 1_000_000)
		if !res.Complete {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkRuntimeFanout measures the goroutine runtime on a fork-
// join fan-out.
func BenchmarkRuntimeFanout(b *testing.B) {
	p := parser.MustParse(`
array 8;
void w0() { async { a[0] = 1; } }
void w1() { async { a[1] = 1; } }
void w2() { async { a[2] = 1; } }
void w3() { async { a[3] = 1; } }
void main() {
  finish { w0(); w1(); w2(); w3(); }
}
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.Run(p, nil, runtime.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairSetCrossSym measures the dense symcross kernel. The
// solvers emit cross terms into sparse pair bags instead; CrossSym
// serves parallel(T) in the explorers (the clocked one included) and
// the type-system reference. Every iteration sweeps both products'
// words; after the first the pairs are all present, so nothing is
// allocated or added.
func BenchmarkPairSetCrossSym(b *testing.B) {
	const n = 2048
	a := intset.New(n)
	c := intset.New(n)
	for i := 0; i < n; i += 3 {
		a.Add(i)
	}
	for i := 1; i < n; i += 5 {
		c.Add(i)
	}
	ps := intset.NewPairs(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.CrossSym(a, c)
	}
}

// BenchmarkSolverTopo is the served default: SCC-condensed
// topological propagation with copy elision — each constraint
// evaluated at most once, whole alias chains solved as one value.
// Compare mg's allocs/op against BenchmarkSolverPhased; huge3000 is
// the 3000-label program size the daemon benchmark serves.
func BenchmarkSolverTopo(b *testing.B) {
	b.Run("mg", func(b *testing.B) { benchSolver(b, constraints.Topo, mgProgram(b)) })
	b.Run("huge3000", func(b *testing.B) {
		benchSolver(b, constraints.Topo, progen.GenerateHuge(0, progen.Huge(3000)))
	})
}

// reportSink keeps BenchmarkReportHuge's result live.
var reportSink mhp.Report

// BenchmarkReportHuge measures mhp.Report on a solved 3000-label
// huge-tier program (context-sensitive): the report layer every
// huge analysis pays after solving, and every cache hit on it.
func BenchmarkReportHuge(b *testing.B) {
	r := mhp.MustAnalyze(progen.GenerateHuge(0, progen.Huge(3000)), constraints.ContextSensitive)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reportSink = r.Report()
	}
}

// BenchmarkEngineCorpus measures analyzing the whole 13-benchmark
// corpus through the engine, sequentially and on the worker pool —
// the perf trajectory every later scaling PR is measured against.
// Caching is off so every iteration re-solves.
func BenchmarkEngineCorpus(b *testing.B) {
	jobs := make([]engine.Job, 0, 13)
	for _, wl := range workloads.All() {
		jobs = append(jobs, engine.Job{Name: wl.Name, Program: wl.Program()})
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(cfg.name, func(b *testing.B) {
			eng := engine.MustNew(engine.Config{Workers: cfg.workers, CacheSize: -1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cr := range eng.AnalyzeCorpus(jobs) {
					if cr.Err != nil {
						b.Fatal(cr.Err)
					}
				}
			}
		})
	}
}

// BenchmarkEngineCacheHit measures the cache-served path: the cost of
// re-requesting an already-solved program (content hash + LRU lookup;
// the hit shares the solved core and its E(main).M, densifying
// nothing). plasma is the largest paper program, where per-request
// summary densification would show most.
func BenchmarkEngineCacheHit(b *testing.B) {
	for _, name := range []string{"mg", "plasma"} {
		b.Run(name, func(b *testing.B) {
			wl, err := workloads.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			eng := engine.MustNew(engine.Config{CacheSize: 16})
			job := engine.Job{Name: wl.Name, Program: wl.Program()}
			if _, err := eng.Analyze(job); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Analyze(job)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Stats.CacheHit {
					b.Fatal("cache miss")
				}
			}
		})
	}
}

// BenchmarkServerQuery measures the daemon's cache-served requests
// through the server's handler without a network: on plasma, the
// largest paper program, a /v1/query verdict read from the engine's
// program cache and a repeated /v1/analyze, a program-cache hit that
// copies the report the engine encoded on the first response (the
// two are hot-mixed's steady state); and a repeated /v1/batch of the
// 13 paper programs, whose slots copy their reports the same way.
func BenchmarkServerQuery(b *testing.B) {
	wl, err := workloads.Get("plasma")
	if err != nil {
		b.Fatal(err)
	}
	p := wl.Program()
	srv, err := server.New(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	post := func(b *testing.B, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	analyze, err := json.Marshal(server.AnalyzeRequest{Source: syntax.Print(p)})
	if err != nil {
		b.Fatal(err)
	}
	post(b, "/v1/analyze", analyze)
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(post(b, "/v1/analyze", analyze).Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	if !resp.Cached {
		b.Fatal("repeated analysis missed the program cache")
	}
	query, err := json.Marshal(server.QueryRequest{
		ProgramHash: resp.ProgramHash,
		A:           p.Labels[0].Name,
		B:           p.Labels[len(p.Labels)-1].Name,
	})
	if err != nil {
		b.Fatal(err)
	}
	var corpus server.BatchRequest
	for _, w := range workloads.All() {
		corpus.Programs = append(corpus.Programs, server.BatchProgram{Name: w.Name, Source: syntax.Print(w.Program())})
	}
	batch, err := json.Marshal(corpus)
	if err != nil {
		b.Fatal(err)
	}
	post(b, "/v1/batch", batch)
	for _, req := range []struct {
		name, path string
		body       []byte
	}{{"query", "/v1/query", query}, {"analyze", "/v1/analyze", analyze}, {"batch", "/v1/batch", batch}} {
		b.Run(req.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				post(b, req.path, req.body)
			}
		})
	}
}

// BenchmarkEngineDelta measures incremental re-analysis after a
// single-method edit (append one skip) against solving the edited
// program from scratch, on the largest benchmark. Caching is off so
// the delta solver itself is measured, not the program cache.
func BenchmarkEngineDelta(b *testing.B) {
	wl, err := workloads.Get("mg")
	if err != nil {
		b.Fatal(err)
	}
	p := wl.Program()
	eng := engine.MustNew(engine.Config{CacheSize: -1})
	base, err := eng.Analyze(engine.Job{Name: wl.Name, Program: p})
	if err != nil {
		b.Fatal(err)
	}
	edited := progen.AppendSkip(p, 0)
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := eng.AnalyzeDelta(base, edited)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Delta.Full {
				b.Fatal("delta fell back to a full solve")
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Analyze(engine.Job{Name: wl.Name, Program: edited}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScaling measures the full pipeline on the three
// size-parameterized families of the scaling study at a fixed size.
func BenchmarkScaling(b *testing.B) {
	progs := map[string]*syntax.Program{
		"chain200": experiments.ChainProgram(200),
		"wide200":  experiments.WideProgram(200),
		"loops200": experiments.LoopsProgram(200),
	}
	for _, name := range []string{"chain200", "wide200", "loops200"} {
		p := progs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := labels.Compute(p)
				constraints.Generate(in, constraints.ContextSensitive).Solve(constraints.Phased)
			}
		})
	}
}
