package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"fx10/internal/server"
)

type opKind uint8

const (
	opAnalyze   opKind = iota // /v1/analyze of a paper program
	opGoAnalyze               // /v1/analyze of a restricted-Go program
	opQuery                   // /v1/query
	opDelta                   // /v1/delta
	opHuge                    // /v1/analyze of a huge-tier program
	numKinds
)

var kindNames = [numKinds]string{"analyze", "goanalyze", "query", "delta", "huge"}

func (k opKind) String() string { return kindNames[k] }

// op says what one request sends, compactly enough to regenerate its
// source later instead of keeping it.
type op struct {
	kind opKind
	// corp is the corpus program the op is about, when the answer is
	// known in advance; nil for unique inputs checked after the window.
	corp *program
	lang string
	base string // source before the unique method (shared, not copied)
	uniq int64  // > 0 appends the unique method benchM<uniq>
	// sess and edit name a delta's revision (and, for the query that
	// follows it, the program asked about); prev is the revision the
	// server's session held before; session is the session's name.
	sess       int
	edit, prev edit
	session    string
	// a and b are a query's labels; la and lb their indices in
	// corp.prog when corp is set.
	a, b   string
	la, lb int
	hash   string // the program hash a query asks about
}

// source regenerates the program text the op sent.
func (in *inputs) source(o *op) string {
	if o.kind == opDelta || (o.kind == opQuery && o.corp == nil) {
		_, src := in.edited(o.sess, o.edit)
		return src
	}
	return withUniq(o.base, o.lang, o.uniq)
}

// request is one ready-to-send HTTP request.
type request struct {
	op   op
	path string
	body []byte
}

func analyzeRequest(o op, source string) request {
	return request{op: o, path: "/v1/analyze", body: mustJSON(server.AnalyzeRequest{Source: source, Language: o.lang, Mode: "cs"})}
}

func queryRequest(o op) request {
	return request{op: o, path: "/v1/query", body: mustJSON(server.QueryRequest{ProgramHash: o.hash, Mode: "cs", A: o.a, B: o.b})}
}

func deltaRequest(o op, source string) request {
	return request{op: o, path: "/v1/delta", body: mustJSON(server.DeltaRequest{Session: o.session, Source: source, Mode: "cs"})}
}

// request rebuilds the request an op sent.
func (in *inputs) request(o *op) request {
	switch o.kind {
	case opQuery:
		return queryRequest(*o)
	case opDelta:
		return deltaRequest(*o, in.source(o))
	default:
		return analyzeRequest(*o, in.source(o))
	}
}

func mustJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types are plain data
	}
	return buf
}

// Failure classes of a record.
const (
	failTransport = "transport"
	failStatus    = "status"
	failDecode    = "decode"
	failMismatch  = "mismatch"
)

// record is one request's outcome. Times are offsets from the run's
// epoch.
type record struct {
	op                op
	id                int64
	due, sent, done   time.Duration
	open              bool // sent by an open-loop client: timed from due
	status            int
	fail              string // "" for a correct 2xx answer
	hash              string
	digest            [32]byte
	cached, verdict   bool
	full              bool // a delta that fell back to a full re-solve
	resolved, methods int  // a delta's re-solved and total methods
}

func (r *record) ok() bool { return r.fail == "" }

// latency is the client-observed time: from the due time for an open
// loop, which charges a stall to every request it delays, and from
// the send for a closed loop.
func (r *record) latency() time.Duration {
	if r.open {
		return r.done - r.due
	}
	return r.done - r.sent
}

// late is how far behind its due time the client sent the request.
func (r *record) late() time.Duration { return r.sent - r.due }

// gen builds a client's next request; last is the client's previous
// record (nil at the start).
type gen func(last *record) request

// client is one connection's worth of traffic: an open loop at rate
// requests per second, or (rate 0) a closed loop that waits think
// after each response before sending the next request.
type client struct {
	rate  float64
	think time.Duration
	gen   gen
	hc    *http.Client
	recs  []record
}

// idHeader carries the request number the trace middleware keys its
// handler span by.
const idHeader = "X-Bench-Request"

// conn returns an HTTP client limited to one connection.
func conn() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// run sends requests until the end offset: back to back in a closed
// loop, on a fixed schedule in an open one.
func (c *client) run(url string, epoch time.Time, start, end time.Duration, ids *atomic.Int64) {
	var last *record
	due := time.Since(epoch)
	for k := 0; ; k++ {
		if c.rate > 0 {
			due = start + time.Duration(float64(k)/c.rate*float64(time.Second))
		}
		if due >= end {
			return
		}
		req := c.gen(last)
		if wait := time.Until(epoch.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		rec := do(c.hc, url, req, ids.Add(1), epoch)
		rec.due, rec.open = due, c.rate > 0
		c.recs = append(c.recs, rec)
		last = &c.recs[len(c.recs)-1]
		if c.rate == 0 {
			due = rec.done + c.think
		}
	}
}

// wire is the part of an analyze or delta response the client checks.
type wire struct {
	ProgramHash string             `json:"programHash"`
	Cached      bool               `json:"cached"`
	Report      json.RawMessage    `json:"report"`
	Delta       *server.DeltaStats `json:"delta"`
}

// do sends one request and checks what it can without a reference:
// status, shape, and for corpus programs the expected answer.
func do(hc *http.Client, url string, req request, id int64, epoch time.Time) record {
	rec := record{op: req.op, id: id}
	hreq, err := http.NewRequest(http.MethodPost, url+req.path, bytes.NewReader(req.body))
	if err != nil {
		panic(err) // the URL is the daemon's own loopback address
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(idHeader, strconv.FormatInt(id, 10))
	rec.sent = time.Since(epoch)
	resp, err := hc.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
	}
	rec.done = time.Since(epoch)
	switch {
	case err != nil:
		rec.fail = failTransport
	case rec.status != http.StatusOK:
		rec.fail = failStatus
	default:
		if err := rec.check(body); err != nil {
			rec.fail = failDecode
		}
	}
	return rec
}

// check decodes a 200 response into the record and compares it with
// the expected answer when the op carries one.
func (r *record) check(body []byte) error {
	o := &r.op
	if o.kind == opQuery {
		var q server.QueryResponse
		if err := json.Unmarshal(body, &q); err != nil {
			return err
		}
		r.verdict = q.MHP
		if o.corp != nil && q.MHP != o.corp.m.Has(o.la, o.lb) {
			r.fail = failMismatch
		}
		return nil
	}
	var w wire
	if err := json.Unmarshal(body, &w); err != nil {
		return err
	}
	d, err := digest(w.Report)
	if err != nil {
		return err
	}
	r.hash, r.cached, r.digest = w.ProgramHash, w.Cached, d
	if d := w.Delta; d != nil {
		r.full, r.resolved, r.methods = d.Full, d.MethodsResolved, d.MethodsTotal
	}
	if o.kind == opDelta && w.Delta == nil && o.edit != (edit{}) {
		return errors.New("delta response without delta stats")
	}
	if o.corp != nil && (r.digest != o.corp.digest || r.hash != o.corp.hash) {
		r.fail = failMismatch
	}
	return nil
}

// daemon is an unmodified server with default configuration, serving
// on a loopback port of this process.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan struct{}
	ctl    *http.Client // set-up and /metrics connection
}

func startDaemon(tr *tracer) (*daemon, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		served: make(chan struct{}), ctl: conn(),
	}
	go func() {
		defer close(d.served)
		if err := d.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "bench: serve: %v\n", err)
		}
	}()
	return d, nil
}

// close stops the listener, waits for Serve to return and cancels any
// solve still running.
func (d *daemon) close() {
	_ = d.hs.Close() // Close only fails with the listener's close error
	<-d.served
	d.srv.Close()
	d.ctl.CloseIdleConnections()
}

// counters is the subset of /metrics the benchmark reads.
type counters struct {
	Coalesced int64 `json:"coalesced"`
	Overload  int64 `json:"overload"`
	QueueWait struct {
		Count int64   `json:"count"`
		P50   float64 `json:"p50Ms"`
		P99   float64 `json:"p99Ms"`
	} `json:"queueWaitMs"`
}

func (d *daemon) poll() (counters, error) {
	var c counters
	resp, err := d.ctl.Get(d.url + "/metrics")
	if err != nil {
		return c, fmt.Errorf("poll /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return c, fmt.Errorf("poll /metrics: %w", err)
	}
	return c, nil
}
