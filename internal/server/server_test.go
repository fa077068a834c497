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
// calls the current slowHook (set per test) with the solve's context,
// then delegates to the reference phased solver. A hook can hold the
// solve cancellably, as the real solvers' checkpoints would, or not,
// like a long stage that does not poll. Tests that install a hook
// must not run in parallel with each other.
type slowStrategy struct{}

var (
	slowHookMu   sync.Mutex
	slowHookFn   func(context.Context)
	registerOnce sync.Once
)

func (slowStrategy) Name() string { return "testslow" }

func (slowStrategy) Solve(ctx context.Context, sys *constraints.System) (*constraints.Solution, error) {
	slowHookMu.Lock()
	fn := slowHookFn
	slowHookMu.Unlock()
	if fn != nil {
		fn(ctx)
	}
	return sys.SolveCtx(ctx, constraints.Phased)
}

// holdCancellably blocks a solve until release is closed or the
// solve's context ends.
func holdCancellably(ctx context.Context, release <-chan struct{}) {
	select {
	case <-release:
	case <-ctx.Done():
	}
}

func setSlowHook(t *testing.T, fn func(context.Context)) {
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

// response is one answer to a request posted in the background.
type response struct {
	status int
	body   []byte
}

// postAsync posts body in the background and delivers the answer on
// the returned channel (status 0 when the request itself failed).
func postAsync(t *testing.T, ts *httptest.Server, path string, body any) <-chan response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	out := make(chan response, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Errorf("POST %s: %v", path, err)
			out <- response{}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("read body: %v", err)
		}
		out <- response{status: resp.StatusCode, body: data}
	}()
	return out
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

// TestDaemonsAnswerAnalyzeByteIdentical: two daemons answer one
// /v1/analyze with the same report bytes, since both compute the
// program's unique least solution; so no choice of daemon can change
// a report.
func TestDaemonsAnswerAnalyzeByteIdentical(t *testing.T) {
	body := AnalyzeRequest{Source: syntax.Print(mustWorkload(t, "crypt").Program())}
	var reports [2]json.RawMessage
	for i := range reports {
		_, ts := newTestServer(t, Config{})
		status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", body)
		var resp struct {
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(data, &resp); status != http.StatusOK || err != nil {
			t.Fatalf("daemon %d: status %d, decode %v:\n%s", i, status, err, data)
		}
		reports[i] = resp.Report
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("two daemons answered different report bytes:\n%s\n---\n%s", reports[0], reports[1])
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

// TestOverload: with one worker wedged and the queue full, additional
// requests are rejected 429 with a Retry-After hint.
func TestOverload(t *testing.T) {
	registerSlow(t)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	setSlowHook(t, func(ctx context.Context) { holdCancellably(ctx, release) })
	defer releaseAll()

	_, ts := newTestServer(t, Config{Strategy: "testslow", Workers: 1, QueueDepth: 1, CacheSize: -1})

	// Distinct programs, so each needs its own solve.
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
	setSlowHook(t, func(ctx context.Context) {
		entered <- struct{}{}
		holdCancellably(ctx, release)
	})
	defer releaseAll()

	analyze := postAsync(t, ts, "/v1/analyze", AnalyzeRequest{Source: syntax.Print(mustWorkload(t, "stream").Program())})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("analyze never reached the solver")
	}
	delta := postAsync(t, ts, "/v1/delta", DeltaRequest{Session: "q", Source: syntax.Print(progen.AppendSkip(p, 0))})

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
	for _, ch := range []<-chan response{analyze, delta} {
		if r := <-ch; r.status != http.StatusOK {
			t.Errorf("status %d, want 200: %s", r.status, r.body)
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
	setSlowHook(t, func(ctx context.Context) { holdCancellably(ctx, release) })
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

	// Re-request without the wedge: the handler returned only once its
	// solve had, so this must be a fresh, correct, uncached solve (the
	// cancelled one must not have been cached).
	releaseAll()
	setSlowHook(t, nil)
	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
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

// TestFreshRequestAfterAbandonedSolve: a request arriving while an
// earlier request's timed-out solve of the same program is still
// unwinding gets a solve of its own and a 200, not that solve's
// cancellation.
func TestFreshRequestAfterAbandonedSolve(t *testing.T) {
	registerSlow(t)
	expired := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	var calls atomic.Int64
	// The first solve outlives its request's deadline until released;
	// later solves run straight through.
	setSlowHook(t, func(ctx context.Context) {
		if calls.Add(1) > 1 {
			return
		}
		<-ctx.Done()
		close(expired)
		<-release
	})
	defer releaseAll()

	_, ts := newTestServer(t, Config{Strategy: "testslow", Workers: 2, RequestTimeout: 300 * time.Millisecond})
	req := AnalyzeRequest{Source: syntax.Print(mustWorkload(t, "series").Program())}

	first := postAsync(t, ts, "/v1/analyze", req)
	select {
	case <-expired:
	case <-time.After(5 * time.Second):
		t.Fatal("the first request's deadline never reached its solve")
	}
	second := postAsync(t, ts, "/v1/analyze", req)
	// Keep the abandoned solve held while the second request arrives.
	// The second request's answer must not depend on this window: it
	// solves on its own whether or not the hold has been released.
	time.Sleep(50 * time.Millisecond)
	releaseAll()

	if r := <-first; r.status != http.StatusGatewayTimeout {
		t.Errorf("held request: status %d, want 504: %s", r.status, r.body)
	}
	if r := <-second; r.status != http.StatusOK {
		t.Errorf("request during the abandoned solve: status %d, want 200: %s", r.status, r.body)
	}
}

// TestSolvesNeverExceedWorkers: a timed-out request keeps its worker
// slot until its solve stops, so on a one-worker server the next
// request never solves alongside a solve stuck in a stage that does
// not poll its context.
func TestSolvesNeverExceedWorkers(t *testing.T) {
	registerSlow(t)
	var calls, running, peak atomic.Int64
	setSlowHook(t, func(context.Context) {
		n := running.Add(1)
		defer running.Add(-1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond)
		}
	})

	_, ts := newTestServer(t, Config{Strategy: "testslow", Workers: 1, RequestTimeout: 100 * time.Millisecond, CacheSize: -1})
	for _, c := range []struct {
		name string
		want int
	}{{"series", http.StatusGatewayTimeout}, {"stream", http.StatusOK}} {
		status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/analyze", AnalyzeRequest{Source: syntax.Print(mustWorkload(t, c.name).Program())})
		if status != c.want {
			t.Fatalf("%s: status %d, want %d: %s", c.name, status, c.want, data)
		}
	}
	if p := peak.Load(); p > 1 {
		t.Errorf("%d solves ran at once on a one-worker server", p)
	}
}

// TestCloseCancelsInFlightSolve: Close ends every request's analysis.
// A held solve and a delta queued behind it both come back with 499
// canceled.
func TestCloseCancelsInFlightSolve(t *testing.T) {
	registerSlow(t)
	s, ts := newTestServer(t, Config{Strategy: "testslow", Workers: 1, CacheSize: -1})
	p := mustWorkload(t, "series").Program()
	if status, data, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: "c", Source: syntax.Print(p)}); status != http.StatusOK {
		t.Fatalf("session base: %d: %s", status, data)
	}

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	// The held solve ends only once Close has cancelled it and the test
	// lets it go, so the queued delta cannot take the slot first.
	setSlowHook(t, func(ctx context.Context) {
		entered <- struct{}{}
		<-ctx.Done()
		<-release
	})
	defer releaseAll()

	analyze := postAsync(t, ts, "/v1/analyze", AnalyzeRequest{Source: syntax.Print(mustWorkload(t, "stream").Program())})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("analyze never reached the solver")
	}
	delta := postAsync(t, ts, "/v1/delta", DeltaRequest{Session: "c", Source: syntax.Print(progen.AppendSkip(p, 0))})
	for deadline := time.Now().Add(5 * time.Second); s.adm.depth() != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the delta never queued for the worker")
		}
	}

	s.Close()
	canceled := func(name string, ch <-chan response) {
		t.Helper()
		select {
		case r := <-ch:
			var er ErrorResponse
			if r.status != statusClientClosedRequest || json.Unmarshal(r.body, &er) != nil || er.Error.Kind != "canceled" {
				t.Errorf("%s: status %d, want 499 canceled: %s", name, r.status, r.body)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no answer within 2s", name)
		}
	}
	canceled("queued delta", delta)
	releaseAll()
	canceled("held analyze", analyze)
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

	// A second session opened on the program s1's last delta left in
	// the cache is served from that entry, and as a session's first
	// response it carries no delta stats.
	status, data, _ = postJSON(t, ts.Client(), ts.URL+"/v1/delta", DeltaRequest{Session: "s2", Source: syntax.Print(cur)})
	if status != http.StatusOK {
		t.Fatalf("second session: %d: %s", status, data)
	}
	var second DeltaResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Delta != nil {
		t.Errorf("second session's first response: cached %v, delta stats %+v; want a hit with none", second.Cached, second.Delta)
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
