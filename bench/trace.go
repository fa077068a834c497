package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fx10/internal/engine"
	"fx10/internal/fleet"
	"fx10/internal/frontend"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/server"
	"fx10/internal/syntax"
)

// Layer span names, in pipeline order. Each is a call into that
// layer's public API, timed from here.
const (
	spanDecode    = "server.decode"
	spanParse     = "parser.parse"
	spanLower     = "frontend.lower"
	spanHash      = "syntax.hash"
	spanLabels    = "labels.compute"
	spanGenerate  = "constraints.generate"
	spanSolve     = "constraints.solve"
	spanSummaries = "engine.summaries"
	spanReport    = "mhp.report"
	spanEncode    = "server.encode"
)

var layerSpans = []string{spanDecode, spanParse, spanLower, spanHash, spanLabels, spanGenerate, spanSolve, spanSummaries, spanReport, spanEncode}

// span is one timed interval; times are offsets from the run's epoch.
// Replayed spans were timed after the window, on the same input, and
// are parented to the handler span of the request they explain.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Replay bool          `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer is the benchmark's middleware around the server's handler:
// it records one server.handler span per request, keyed by the
// request number the client sends in idHeader.
type tracer struct {
	epoch time.Time
	// from is the offset before which requests are not recorded: the
	// untraced first half of a traced window.
	from  atomic.Int64
	mu    sync.Mutex
	spans map[int64][2]time.Duration
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make(map[int64][2]time.Duration)}
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Since(t.epoch)
		h.ServeHTTP(w, r)
		end := time.Since(t.epoch)
		if int64(start) < t.from.Load() {
			return
		}
		id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
		if err != nil {
			return
		}
		t.mu.Lock()
		t.spans[id] = [2]time.Duration{start, end}
		t.mu.Unlock()
	})
}

func (t *tracer) handler(id int64) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	se, ok := t.spans[id]
	return span{Req: id, Name: "server.handler", Start: se[0], End: se[1]}, ok
}

// replay is one request's layers, re-run on its input the way the
// server ran them: a cached response replays only decoding, parsing or
// lowering, hashing, report and encode.
type replay struct {
	rec   *record
	spans []span

	srcBytes, stmts, dropped int
	solved                   bool
	constraints              int
	evals                    int64
	allocBytes               uint64
	pairs, respBytes         int
}

func (x *replay) layer(name string) time.Duration {
	var d time.Duration
	for _, s := range x.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

func (x *replay) total() (d time.Duration) {
	for _, s := range x.spans {
		d += s.dur()
	}
	return d
}

// replayer re-runs requests layer by layer.
type replayer struct {
	in    *inputs
	epoch time.Time
	// live is configured like the served engine, so a miss does the
	// work the server's did, summary tier included; its one-entry
	// program cache only bounds memory. ref has its caches off and
	// supplies, untimed, the solved results that cached responses and
	// delta bases reused.
	live, ref *engine.Engine
	memo      map[syntax.ProgramHash]*engine.Result
}

func newReplayer(in *inputs, d *daemon, epoch time.Time) *replayer {
	strategy := d.srv.Engine().Strategy().Name()
	return &replayer{
		in: in, epoch: epoch,
		live: engine.MustNew(engine.Config{Strategy: strategy, CacheSize: 1}),
		ref:  engine.MustNew(engine.Config{Strategy: strategy, CacheSize: -1}),
		memo: make(map[syntax.ProgramHash]*engine.Result),
	}
}

func (rp *replayer) timed(x *replay, name string, f func()) {
	start := time.Since(rp.epoch)
	f()
	x.spans = append(x.spans, span{Name: name, Start: start, End: time.Since(rp.epoch), Replay: true})
}

func (rp *replayer) replay(r *record) (*replay, error) {
	x := &replay{rec: r}
	src, err := rp.decode(x)
	if err != nil {
		return nil, err
	}
	if r.op.kind == opQuery {
		rp.timed(x, spanEncode, func() {
			x.respBytes = encode(server.QueryResponse{ProgramHash: r.op.hash, A: r.op.a, B: r.op.b, MHP: r.verdict})
		})
		return x, nil
	}
	p, err := rp.front(x, src, r.op.lang)
	if err != nil {
		return nil, err
	}
	// The server keys its flight, cache and index by the program hash;
	// a miss or a delta also hashes every method. Both are memoized, so
	// the engine calls below reuse them.
	rp.timed(x, spanHash, func() {
		p.Hash()
		if !r.cached {
			p.MethodHashes()
		}
	})
	var res *engine.Result
	var env time.Duration // Env and M extraction inside the engine call
	switch {
	case r.cached:
		if res = rp.memo[p.Hash()]; res == nil {
			if res, err = rp.ref.Analyze(engine.Job{Program: p}); err != nil {
				return nil, err
			}
			rp.memo[p.Hash()] = res
		}
		start := time.Since(rp.epoch)
		solved := *res
		solved.Env, solved.M = res.Sol.Env(), res.Sol.MainM()
		res, env = &solved, time.Since(rp.epoch)-start
	case r.op.kind == opDelta:
		_, baseSrc := rp.in.edited(r.op.sess, r.op.prev)
		baseP, err := parser.Parse(baseSrc)
		if err != nil {
			return nil, err
		}
		base, err := rp.ref.Analyze(engine.Job{Program: baseP})
		if err != nil {
			return nil, err
		}
		res, env, err = rp.engineRun(x, func(ctx context.Context) (*engine.Result, error) {
			return rp.live.AnalyzeDeltaCtx(ctx, base, p)
		})
		if err != nil {
			return nil, err
		}
	default:
		res, env, err = rp.engineRun(x, func(ctx context.Context) (*engine.Result, error) {
			return rp.live.AnalyzeCtx(ctx, engine.Job{Program: p})
		})
		if err != nil {
			return nil, err
		}
	}
	var rep mhp.Report
	rp.timed(x, spanReport, func() { rep = mhp.FromEngine(res).Report() })
	x.spans[len(x.spans)-1].Start -= env
	x.pairs = len(rep.Pairs)
	resp := server.AnalyzeResponse{ProgramHash: rep.ProgramHash, Cached: r.cached, Report: rep}
	rp.timed(x, spanEncode, func() {
		if r.op.kind == opDelta && !r.cached {
			x.respBytes = encode(server.DeltaResponse{
				AnalyzeResponse: resp,
				Delta:           &server.DeltaStats{MethodsTotal: r.methods, MethodsResolved: r.resolved},
			})
			return
		}
		x.respBytes = encode(resp)
	})
	return x, nil
}

// engineRun times one engine call on a cancellable context, as the
// server makes it, and lays the engine's own stage timings end to end.
// The engine time outside those stages, cache bookkeeping and above
// all the method-summary tier, becomes engine.summaries. It returns the
// time the engine spent extracting Env and M, which belongs to report.
func (rp *replayer) engineRun(x *replay, run func(context.Context) (*engine.Result, error)) (*engine.Result, time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Since(rp.epoch)
	res, err := run(ctx)
	if err != nil {
		return nil, 0, err
	}
	st := res.Stats
	other := st.Total - st.Parse - st.Labels - st.Generate - st.Solve - st.Report
	for _, stage := range []struct {
		name string
		d    time.Duration
	}{{spanLabels, st.Labels}, {spanGenerate, st.Generate}, {spanSolve, st.Solve}, {spanSummaries, other}} {
		x.spans = append(x.spans, span{Name: stage.name, Start: start, End: start + stage.d, Replay: true})
		start += stage.d
	}
	x.solved, x.evals, x.allocBytes = true, st.Evaluations, st.AllocBytes
	x.constraints = total(res.Sys.Counts())
	return res, st.Report, nil
}

// decode decodes the request body the server received into its wire
// type and returns the program source it carries.
func (rp *replayer) decode(x *replay) (src string, err error) {
	req := rp.in.request(&x.rec.op)
	rp.timed(x, spanDecode, func() {
		switch x.rec.op.kind {
		case opQuery:
			var q server.QueryRequest
			err = json.Unmarshal(req.body, &q)
		case opDelta:
			var d server.DeltaRequest
			err = json.Unmarshal(req.body, &d)
			src = d.Source
		default:
			var a server.AnalyzeRequest
			err = json.Unmarshal(req.body, &a)
			src = a.Source
		}
	})
	return src, err
}

// front parses core FX10 or lowers another language, as the server
// does next.
func (rp *replayer) front(x *replay, src, lang string) (p *syntax.Program, err error) {
	x.srcBytes = len(src)
	if lang == "" {
		rp.timed(x, spanParse, func() { p, err = parser.Parse(src) })
		return p, err
	}
	rp.timed(x, spanLower, func() {
		var st frontend.Stats
		p, st, err = lower(src, lang)
		x.stmts, x.dropped = st.Stmts, len(st.Dropped)
	})
	return p, err
}

func total(a, b, c int) int { return a + b + c }

// encode renders a response body the way the server does and returns
// its size.
func encode(v any) int {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // wire types are plain data
	}
	return buf.Len()
}

// proxyOverhead sends a sample of non-delta requests again, directly
// and through a one-backend fleet router in alternating order, and
// returns the routed-minus-direct latency of each pair in µs.
func proxyOverhead(d *daemon, in *inputs, recs []*record, cfg config, epoch time.Time, ids *atomic.Int64) ([]float64, error) {
	rt, err := fleet.NewRouter(fleet.RouterConfig{Backends: []string{d.url}})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: rt.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "bench: router serve: %v\n", err)
		}
	}()
	defer func() { _ = hs.Close(); <-served }()

	var cands []*record
	for _, r := range recs {
		if r.ok() && r.op.kind != opDelta && r.op.kind != opHuge {
			cands = append(cands, r)
		}
	}
	direct, routed := conn(), conn()
	defer direct.CloseIdleConnections()
	defer routed.CloseIdleConnections()
	routerURL := "http://" + ln.Addr().String()
	var diffs []float64
	for i, r := range sample(cands, cfg.seed+1, cfg.proxyMax, 0) {
		req := in.request(&r.op)
		do(direct, d.url, req, ids.Add(1), epoch) // warm the caches the pair will hit
		var a, b record
		if i%2 == 0 {
			a = do(direct, d.url, req, ids.Add(1), epoch)
			b = do(routed, routerURL, req, ids.Add(1), epoch)
		} else {
			b = do(routed, routerURL, req, ids.Add(1), epoch)
			a = do(direct, d.url, req, ids.Add(1), epoch)
		}
		if a.ok() && b.ok() {
			diffs = append(diffs, us(b.latency()-a.latency()))
		}
	}
	return diffs, nil
}
