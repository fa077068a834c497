package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/mhp"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// slowStrategy is a registered-once test strategy whose Solve first
// calls the current slowHook (set per test), then delegates to the
// reference phased solver. Tests that install a hook must not run in
// parallel with each other.
type slowStrategy struct{}

var (
	slowSolves   atomic.Int64
	slowHookMu   sync.Mutex
	slowHookFn   func()
	registerOnce sync.Once
)

func (slowStrategy) Name() string { return "testslow" }

func (slowStrategy) Solve(ctx context.Context, sys *constraints.System) (*constraints.Solution, error) {
	slowSolves.Add(1)
	slowHookMu.Lock()
	fn := slowHookFn
	slowHookMu.Unlock()
	if fn != nil {
		fn()
	}
	return sys.SolveCtx(ctx, constraints.Phased)
}

func setSlowHook(t *testing.T, fn func()) {
	t.Helper()
	slowHookMu.Lock()
	slowHookFn = fn
	slowHookMu.Unlock()
	t.Cleanup(func() {
		slowHookMu.Lock()
		slowHookFn = nil
		slowHookMu.Unlock()
	})
}

func registerSlow(t *testing.T) {
	registerOnce.Do(func() {
		if err := engine.Register(slowStrategy{}); err != nil {
			t.Fatalf("register testslow: %v", err)
		}
	})
}

// newTestServer builds a Server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data, resp.Header
}

func decodeAnalyze(t *testing.T, data []byte) AnalyzeResponse {
	t.Helper()
	var resp AnalyzeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decode analyze response: %v\n%s", err, data)
	}
	return resp
}

// reportJSON is the byte-stable comparison key: the report rendered
// by a direct engine run.
func reportJSON(t *testing.T, eng *engine.Engine, p *syntax.Program, mode constraints.Mode) []byte {
	t.Helper()
	res, err := eng.AnalyzeCtx(context.Background(), engine.Job{Program: p, Mode: mode})
	if err != nil {
		t.Fatalf("direct analyze: %v", err)
	}
	return marshalReport(t, res)
}

func marshalReport(t *testing.T, res *engine.Result) []byte {
	t.Helper()
	data, err := json.Marshal(mhp.FromEngine(res).Report())
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return data
}

// maskedReportJSON compares MHP content only: iteration counters
// legitimately differ between an incremental and a full solve.
func maskedReportJSON(t *testing.T, rep mhp.Report) []byte {
	t.Helper()
	rep.Iterations = mhp.Iterations{}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return data
}

func directMaskedReport(t *testing.T, eng *engine.Engine, p *syntax.Program, mode constraints.Mode) []byte {
	t.Helper()
	res, err := eng.AnalyzeCtx(context.Background(), engine.Job{Program: p, Mode: mode})
	if err != nil {
		t.Fatalf("direct analyze: %v", err)
	}
	return maskedReportJSON(t, mhp.FromEngine(res).Report())
}

func TestAnalyzeMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	direct, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"series", "stream", "crypt"} {
		b, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		src := syntax.Print(b.Program())
		for _, mode := range []string{"cs", "ci"} {
			status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src, Mode: mode})
			if status != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", name, mode, status, data)
			}
			resp := decodeAnalyze(t, data)
			got, err := json.Marshal(resp.Report)
			if err != nil {
				t.Fatal(err)
			}
			m := constraints.ContextSensitive
			if mode == "ci" {
				m = constraints.ContextInsensitive
			}
			want := reportJSON(t, direct, b.Program(), m)
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: served report differs from direct engine run\nserved: %s\ndirect: %s", name, mode, got, want)
			}
		}
	}
}

func TestAnalyzeCacheHitIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := syntax.Print(mustWorkload(t, "crypt").Program())
	_, first, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
	_, second, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
	r1, r2 := decodeAnalyze(t, first), decodeAnalyze(t, second)
	if !r2.Cached {
		t.Error("second identical analyze not served from cache")
	}
	j1, _ := json.Marshal(r1.Report)
	j2, _ := json.Marshal(r2.Report)
	if !bytes.Equal(j1, j2) {
		t.Errorf("cache hit changed the report bytes:\n%s\n%s", j1, j2)
	}
}

func TestQueryVerdicts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	b := mustWorkload(t, "crypt")
	p := b.Program()
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: syntax.Print(p)})
	if status != http.StatusOK {
		t.Fatalf("analyze: %d: %s", status, data)
	}
	hash := decodeAnalyze(t, data).ProgramHash

	direct, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := direct.AnalyzeCtx(context.Background(), engine.Job{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Labels {
		for j := range p.Labels {
			req := QueryRequest{ProgramHash: hash, A: p.Labels[i].Name, B: p.Labels[j].Name}
			status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", req)
			if status != http.StatusOK {
				t.Fatalf("query %s,%s: %d: %s", req.A, req.B, status, data)
			}
			var resp QueryResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				t.Fatal(err)
			}
			if want := res.M.Has(i, j); resp.MHP != want {
				t.Errorf("query(%s, %s) = %v, engine says %v", req.A, req.B, resp.MHP, want)
			}
		}
	}
}

func TestErrorKinds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		url    string
		body   any
		status int
		kind   string
	}{
		{"parse", "/v1/analyze", AnalyzeRequest{Source: "not fx10"}, http.StatusUnprocessableEntity, "parse"},
		{"bad mode", "/v1/analyze", AnalyzeRequest{Source: "array 1;\nvoid main() { skip; }", Mode: "nope"}, http.StatusBadRequest, "bad_request"},
		{"unknown hash", "/v1/query", QueryRequest{ProgramHash: "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff", A: "x", B: "y"}, http.StatusNotFound, "not_found"},
		{"bad hash", "/v1/query", QueryRequest{ProgramHash: "zz", A: "x", B: "y"}, http.StatusBadRequest, "bad_request"},
		{"empty session", "/v1/delta", DeltaRequest{Source: "array 1;\nvoid main() { skip; }"}, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		status, data, _ := postJSON(t, ts.Client(), ts.URL+tc.url, tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.status, data)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Errorf("%s: non-JSON error body %s", tc.name, data)
			continue
		}
		if er.Error.Kind != tc.kind {
			t.Errorf("%s: kind %q, want %q", tc.name, er.Error.Kind, tc.kind)
		}
	}
}

// TestCoalescing: N concurrent analyzes of the same program perform
// exactly one solve; the rest join the flight.
func TestCoalescing(t *testing.T) {
	registerSlow(t)
	setSlowHook(t, func() { time.Sleep(300 * time.Millisecond) })
	slowSolves.Store(0)

	// Cache disabled so coalescing (not the cache) must dedupe.
	_, ts := newTestServer(t, Config{Strategy: "testslow", Workers: 4, CacheSize: -1})
	src := syntax.Print(mustWorkload(t, "series").Program())

	const n = 8
	var wg sync.WaitGroup
	var coalesced, solved atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, data)
				return
			}
			if decodeAnalyze(t, data).Coalesced {
				coalesced.Add(1)
			} else {
				solved.Add(1)
			}
		}()
	}
	wg.Wait()

	if got := slowSolves.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests performed %d solves, want exactly 1", n, got)
	}
	if solved.Load() != 1 || coalesced.Load() != n-1 {
		t.Errorf("leader/joiner split %d/%d, want 1/%d", solved.Load(), coalesced.Load(), n-1)
	}
}

// TestOverload: with one worker wedged and the queue full, additional
// requests are rejected 429 with a Retry-After hint.
func TestOverload(t *testing.T) {
	registerSlow(t)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	setSlowHook(t, func() { <-release })
	defer releaseAll()

	_, ts := newTestServer(t, Config{Strategy: "testslow", Workers: 1, QueueDepth: 1, CacheSize: -1})

	// Distinct programs: no coalescing, each needs its own solve.
	srcs := make([]string, 6)
	for i := range srcs {
		srcs[i] = syntax.Print(progen.Generate(int64(i+1), progen.Default()))
	}

	results := make(chan int, len(srcs))
	var wg sync.WaitGroup
	var retryAfterSeen atomic.Bool
	for _, src := range srcs {
		wg.Add(1)
		go func(src string) {
			defer wg.Done()
			status, _, hdr := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
			if status == http.StatusTooManyRequests {
				if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && ra >= 1 {
					retryAfterSeen.Store(true)
				}
			}
			results <- status
		}(src)
		// Stagger slightly so occupancy is deterministic: first
		// request takes the worker, second queues, the rest overflow.
		time.Sleep(30 * time.Millisecond)
	}

	// Wait for the 429s; the two admitted requests are still blocked.
	deadline := time.After(5 * time.Second)
	rejected := 0
	for rejected < len(srcs)-2 {
		select {
		case status := <-results:
			if status != http.StatusTooManyRequests {
				t.Fatalf("unexpected early status %d (want only 429s before release)", status)
			}
			rejected++
		case <-deadline:
			t.Fatalf("timed out with %d rejections, want %d", rejected, len(srcs)-2)
		}
	}
	if !retryAfterSeen.Load() {
		t.Error("429 responses lacked a usable Retry-After header")
	}

	releaseAll()
	wg.Wait()
	close(results)
	ok := 0
	for status := range results {
		if status == http.StatusOK {
			ok++
		}
	}
	if ok != 2 {
		t.Errorf("admitted requests: %d OK, want 2", ok)
	}
}

// TestQueuedDeltaCountsInQueueDepth: a /v1/delta waiting for the only
// worker shows in /metrics queueDepth like any other queued solve.
func TestQueuedDeltaCountsInQueueDepth(t *testing.T) {
	registerSlow(t)
	_, ts := newTestServer(t, Config{Strategy: "testslow", Workers: 1, QueueDepth: 2, CacheSize: -1})
	p := mustWorkload(t, "series").Program()
	// The session's first request is a full analyze: give it a base
	// before the worker is held.
	if status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: "q", Source: syntax.Print(p)}); status != http.StatusOK {
		t.Fatalf("session base: %d: %s", status, data)
	}

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	setSlowHook(t, func() {
		entered <- struct{}{}
		<-release
	})
	defer releaseAll()

	statuses := make(chan int, 2)
	post := func(path string, body any) {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go post("/v1/analyze", AnalyzeRequest{Source: syntax.Print(mustWorkload(t, "stream").Program())})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("analyze never reached the solver")
	}
	go post("/v1/delta", DeltaRequest{Session: "q", Source: syntax.Print(progen.AppendSkip(p, 0))})

	queueDepth := func() float64 {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("/metrics is not JSON: %v", err)
		}
		d, _ := m["queueDepth"].(float64)
		return d
	}
	deadline := time.Now().Add(5 * time.Second)
	for queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queueDepth never read 1 while a delta waited for the worker")
		}
		time.Sleep(10 * time.Millisecond)
	}

	releaseAll()
	for i := 0; i < 2; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Errorf("status %d, want 200", status)
		}
	}
	if d := queueDepth(); d != 0 {
		t.Errorf("queueDepth = %v after the queue drained, want 0", d)
	}
}

// TestCancelMidSolve: a request whose deadline fires mid-solve comes
// back promptly with 504 and does not poison the cache.
func TestCancelMidSolve(t *testing.T) {
	registerSlow(t)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	setSlowHook(t, func() { <-release })
	defer releaseAll()

	s, ts := newTestServer(t, Config{Strategy: "testslow", Workers: 2, RequestTimeout: 100 * time.Millisecond})
	src := syntax.Print(mustWorkload(t, "series").Program())

	start := time.Now()
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, data)
	}
	if elapsed > 2*time.Second {
		t.Errorf("timeout response took %v, want ≈100ms", elapsed)
	}

	// Unblock and re-request without the wedge: must be a fresh,
	// correct, uncached solve (the cancelled one must not have been
	// cached).
	releaseAll()
	setSlowHook(t, nil)
	// The doomed flight needs a moment to clear the flight table; a
	// request that lands before that joins it and inherits its
	// cancellation, so retry briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
		if status == http.StatusOK || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status != http.StatusOK {
		t.Fatalf("post-cancel analyze: %d: %s", status, data)
	}
	resp := decodeAnalyze(t, data)
	if resp.Cached {
		t.Error("cancelled solve poisoned the result cache")
	}
	got, _ := json.Marshal(resp.Report)
	want := reportJSON(t, s.Engine(), mustWorkload(t, "series").Program(), constraints.ContextSensitive)
	if !bytes.Equal(got, want) {
		t.Error("post-cancel report differs from direct engine run")
	}
}

func TestDeltaSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := mustWorkload(t, "stream").Program()

	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: "s1", Source: syntax.Print(p)})
	if status != http.StatusOK {
		t.Fatalf("first delta: %d: %s", status, data)
	}
	var first DeltaResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Delta != nil {
		t.Error("first request of a session reported delta stats, want full analyze")
	}

	direct, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cur := p
	for i := 0; i < 3; i++ {
		cur = progen.MutateMethod(cur, i%len(cur.Methods), int64(100+i))
		status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: "s1", Source: syntax.Print(cur)})
		if status != http.StatusOK {
			t.Fatalf("delta %d: %d: %s", i, status, data)
		}
		var resp DeltaResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Delta == nil {
			t.Errorf("delta %d: no delta stats on an incremental request", i)
		}
		got := maskedReportJSON(t, resp.Report)
		want := directMaskedReport(t, direct, cur, constraints.ContextSensitive)
		if !bytes.Equal(got, want) {
			t.Errorf("delta %d: incremental report differs from full analyze", i)
		}
	}
}

func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	s.Drain()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	src := syntax.Print(mustWorkload(t, "series").Program())
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
	if status != http.StatusServiceUnavailable {
		t.Errorf("analyze while draining: %d, want 503 (%s)", status, data)
	}
}

// TestHammer is the -race integration test: one server, many clients
// mixing analyze, query and delta, every analysis response checked
// bit-identical against a direct engine run.
func TestHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	names := []string{"series", "stream", "crypt"}
	type ref struct {
		src    string
		hash   string
		labels []string
		m      map[[2]string]bool
		report []byte
	}
	direct, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]ref, len(names))
	for i, name := range names {
		p := mustWorkload(t, name).Program()
		res, err := direct.AnalyzeCtx(context.Background(), engine.Job{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		r := ref{src: syntax.Print(p), m: map[[2]string]bool{}, report: marshalReport(t, res)}
		hash := p.Hash()
		r.hash = fmt.Sprintf("%x", hash[:])
		for li := range p.Labels {
			r.labels = append(r.labels, p.Labels[li].Name)
			for lj := range p.Labels {
				r.m[[2]string{p.Labels[li].Name, p.Labels[lj].Name}] = res.M.Has(li, lj)
			}
		}
		refs[i] = r
	}

	// Warm the program cache: a client may query a program before any
	// other client has analyzed it otherwise.
	for _, r := range refs {
		status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: r.src})
		if status != http.StatusOK {
			t.Fatalf("warmup analyze: %d: %s", status, data)
		}
	}

	const clients = 8
	const iters = 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := "hammer-" + strconv.Itoa(c)
			sessProg := progen.Clone(mustWorkload(t, names[c%len(names)]).Program())
			for i := 0; i < iters; i++ {
				r := refs[(c+i)%len(refs)]
				switch i % 3 {
				case 0: // analyze, bit-identical report
					status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: r.src})
					if status == http.StatusTooManyRequests {
						continue
					}
					if status != http.StatusOK {
						t.Errorf("client %d: analyze status %d", c, status)
						continue
					}
					got, _ := json.Marshal(decodeAnalyze(t, data).Report)
					if !bytes.Equal(got, r.report) {
						t.Errorf("client %d: analyze report differs from direct engine run", c)
					}
				case 1: // query, verdict identical
					a := r.labels[i%len(r.labels)]
					b := r.labels[(i*7)%len(r.labels)]
					status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", QueryRequest{ProgramHash: r.hash, A: a, B: b})
					if status != http.StatusOK {
						t.Errorf("client %d: query status %d: %s", c, status, data)
						continue
					}
					var resp QueryResponse
					if err := json.Unmarshal(data, &resp); err != nil {
						t.Error(err)
						continue
					}
					if resp.MHP != r.m[[2]string{a, b}] {
						t.Errorf("client %d: query(%s,%s) = %v, want %v", c, a, b, resp.MHP, r.m[[2]string{a, b}])
					}
				case 2: // delta, report matches a fresh full analyze
					sessProg = progen.MutateMethod(sessProg, i%len(sessProg.Methods), int64(c*1000+i))
					status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: sess, Source: syntax.Print(sessProg)})
					if status == http.StatusTooManyRequests {
						continue
					}
					if status != http.StatusOK {
						t.Errorf("client %d: delta status %d: %s", c, status, data)
						continue
					}
					var resp DeltaResponse
					if err := json.Unmarshal(data, &resp); err != nil {
						t.Error(err)
						continue
					}
					got := maskedReportJSON(t, resp.Report)
					if !bytes.Equal(got, directMaskedReport(t, direct, sessProg, constraints.ContextSensitive)) {
						t.Errorf("client %d: delta report differs from direct engine run", c)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := syntax.Print(mustWorkload(t, "series").Program())
	postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
	postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, data)
	}
	for _, key := range []string{"requests", "responses", "solves", "cache", "requestLatencyMs", "uptimeSeconds"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %q\n%s", key, data)
		}
	}
}

// TestDefaultConfigServesTopo: the zero Config — what fx10d builds —
// serves the engine's default strategy, topo.
func TestDefaultConfigServesTopo(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Engine().Strategy().Name(); got != "topo" {
		t.Errorf("default server serves %q, want topo", got)
	}
}

// TestCacheHitIsNotASolve: a repeated analysis served from the
// program cache must not count as a solve or feed the solve latency
// (and with it the Retry-After estimate).
func TestCacheHitIsNotASolve(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := syntax.Print(mustWorkload(t, "series").Program())
	for i := 0; i < 2; i++ {
		if status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src}); status != http.StatusOK {
			t.Fatalf("analyze %d: status %d: %s", i, status, data)
		}
	}
	if got := s.metrics.solves.Value(); got != 1 {
		t.Errorf("solves = %d after two identical sequential analyses, want 1", got)
	}
	if got := s.metrics.solveLatency.count.Load(); got != 1 {
		t.Errorf("solve latency observations = %d, want 1", got)
	}
}

func mustWorkload(t *testing.T, name string) *workloads.Benchmark {
	t.Helper()
	b, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAnalyzeClockedProgram: a clocked program's report carries the
// clocks section (per-label phases, pruned-pair count) through the
// wire format, and clock misuse — a barrier inside an unclocked
// async — is rejected at the front door like a parse error.
func TestAnalyzeClockedProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const src = `
array 8;
void main() {
  L: clocked async { W: a[0] = 1; N: next; R: a[1] = a[0] + 1; }
  M: next;
  D: a[2] = a[1] + 1;
}
`
	status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	resp := decodeAnalyze(t, data)
	if resp.Report.Clocks == nil {
		t.Fatal("clocked analyze response has no clocks section")
	}
	if len(resp.Report.Clocks.Phases) == 0 {
		t.Error("clocks section has no label phases")
	}

	const bad = `
array 2;
void main() {
  A: async { N: next; }
}
`
	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: bad})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("clock misuse: status %d, want 422: %s", status, data)
	}
}
