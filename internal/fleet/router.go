package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"fx10/internal/parser"
)

// RouterConfig configures a fleet front door.
type RouterConfig struct {
	// Backends are the fx10d replica base URLs
	// ("http://127.0.0.1:8711"). At least one is required.
	Backends []string
	// Vnodes is the per-backend virtual-node count; ≤ 0 selects
	// DefaultVnodes.
	Vnodes int
	// HealthEvery is the health-sweep period (default 1s);
	// HealthTimeout bounds one /healthz probe (default 1s).
	HealthEvery   time.Duration
	HealthTimeout time.Duration
	// MaxBodyBytes bounds a routed request body (default 8 MiB — the
	// router must accept anything a backend would, and backends cap
	// source at 1 MiB with batch fan-in above that).
	MaxBodyBytes int64
	// Client overrides the forwarding HTTP client (tests).
	Client *http.Client
}

// Router is the fleet front door: an http.Handler that routes every
// /v1/* request to a replica by content key, fails over in ring order
// when the owner is down, and serves its own /healthz and /metrics.
//
// Routing invariants (DESIGN.md §12): (1) same key → same backend, on
// every router instance, across restarts; (2) a response's bytes never
// depend on which backend served it — replicas are bit-identical by
// the solvers' unique-least-fixpoint guarantee — so failover is
// invisible to clients; (3) only /v1/delta routing is stateful
// (session affinity), and even there a failover costs one full
// re-analyze, not correctness.
type Router struct {
	ring    *Ring
	client  *http.Client
	mux     *http.ServeMux
	maxBody int64

	healthEvery   time.Duration
	healthTimeout time.Duration

	mu      sync.Mutex
	healthy map[string]bool

	metrics *RouterMetrics

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter builds a router and runs one synchronous health sweep, so
// a freshly started router already knows which replicas are up; the
// periodic sweep continues in the background until Close.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring, err := NewRing(cfg.Backends, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		ring:          ring,
		client:        client,
		maxBody:       cfg.MaxBodyBytes,
		healthEvery:   cfg.HealthEvery,
		healthTimeout: cfg.HealthTimeout,
		healthy:       make(map[string]bool, len(ring.backends)),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	rt.metrics = newRouterMetrics(ring.Backends(), rt.healthySnapshot)
	rt.sweep()
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/", rt.handleProxy)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.Handle("/metrics", rt.metrics)
	go rt.loop()
	return rt, nil
}

// Handler returns the router's root handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics returns the router's metrics registry.
func (rt *Router) Metrics() *RouterMetrics { return rt.metrics }

// Ring returns the routing ring (for tests and tooling).
func (rt *Router) Ring() *Ring { return rt.ring }

// Close stops the health loop.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

func (rt *Router) loop() {
	defer close(rt.done)
	t := time.NewTicker(rt.healthEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.sweep()
		}
	}
}

// sweep probes every backend's /healthz once. A backend is healthy iff
// it answers 200 within the timeout — a draining daemon answers 503
// and is routed around before it stops accepting work.
func (rt *Router) sweep() {
	results := make(map[string]bool, len(rt.ring.backends))
	var wg sync.WaitGroup
	var resMu sync.Mutex
	for _, b := range rt.ring.Backends() {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			ok := rt.probe(b)
			resMu.Lock()
			results[b] = ok
			resMu.Unlock()
		}(b)
	}
	wg.Wait()
	rt.mu.Lock()
	for b, ok := range results {
		rt.healthy[b] = ok
	}
	rt.mu.Unlock()
}

func (rt *Router) probe(backend string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) markUnhealthy(backend string) {
	rt.mu.Lock()
	rt.healthy[backend] = false
	rt.mu.Unlock()
}

func (rt *Router) isHealthy(backend string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.healthy[backend]
}

func (rt *Router) healthySnapshot() (healthy, down []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, b := range rt.ring.backends {
		if rt.healthy[b] {
			healthy = append(healthy, b)
		} else {
			down = append(down, b)
		}
	}
	return healthy, down
}

// handleHealthz: the fleet is up iff at least one replica is.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy, _ := rt.healthySnapshot()
	status := http.StatusOK
	state := "ok"
	if len(healthy) == 0 {
		status = http.StatusServiceUnavailable
		state = "down"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"status\": %q,\n  \"healthyBackends\": %d\n}\n", state, len(healthy))
}

// handleProxy routes one /v1/* request: extract the content key, walk
// the ring's failover order preferring healthy backends, forward the
// buffered body, relay the first non-failover response.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeRouterError(w, http.StatusMethodNotAllowed, "bad_request", "use POST")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.maxBody+1))
	if err != nil {
		writeRouterError(w, 499, "canceled", "body read failed")
		return
	}
	if int64(len(body)) > rt.maxBody {
		writeRouterError(w, http.StatusRequestEntityTooLarge, "bad_request", "request body too large")
		return
	}
	key := RouteKey(r.URL.Path, body)
	rt.metrics.keyed.Add(r.URL.Path, 1)

	// Failover order: the full ring walk, healthy backends first
	// within it. A request is only lost when every replica fails.
	order := rt.ring.LookupN(key, len(rt.ring.backends))
	candidates := make([]string, 0, len(order))
	for _, b := range order {
		if rt.isHealthy(b) {
			candidates = append(candidates, b)
		}
	}
	sawUnhealthy := len(candidates) < len(order)
	for _, b := range order {
		if !rt.isHealthy(b) {
			candidates = append(candidates, b)
		}
	}

	var lastErr error
	for i, b := range candidates {
		if i > 0 {
			rt.metrics.failovers.Add(1)
		}
		resp, err := rt.forward(r, b, body)
		if err != nil {
			// Transport failure: the replica is gone (or going); mark
			// it down now rather than waiting for the next sweep.
			rt.markUnhealthy(b)
			lastErr = err
			continue
		}
		if retriableStatus(resp.status) && i < len(candidates)-1 {
			// 502/503/504: the replica answered but cannot serve
			// (draining, dying proxy); any other replica returns the
			// identical bytes, so retry is safe and invisible.
			lastErr = fmt.Errorf("%s: status %d", b, resp.status)
			continue
		}
		rt.metrics.routed.Add(b, 1)
		if sawUnhealthy || i > 0 {
			rt.metrics.reroutes.Add(1)
		}
		w.Header().Set("Content-Type", resp.contentType)
		w.WriteHeader(resp.status)
		w.Write(resp.body)
		return
	}
	rt.metrics.unrouted.Add(1)
	msg := "no healthy backend"
	if lastErr != nil {
		msg = fmt.Sprintf("no backend could serve the request: %v", lastErr)
	}
	writeRouterError(w, http.StatusBadGateway, "unavailable", msg)
}

type proxiedResponse struct {
	status      int
	contentType string
	body        []byte
}

func (rt *Router) forward(r *http.Request, backend string, body []byte) (*proxiedResponse, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, backend+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &proxiedResponse{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		body:        respBody,
	}, nil
}

func retriableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

func writeRouterError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\n  \"error\": {\n    \"kind\": %q,\n    \"message\": %q\n  }\n}\n", kind, msg)
}

// RouteKey derives the consistent-hash key for one request from its
// path and body. The key is content-derived — (Program.Hash, mode,
// language) — so renamed-but-identical FX10 sources, an /v1/analyze
// and the /v1/query for its result, and every retry of one request
// all land on the same replica's caches. Malformed bodies still get a
// deterministic key (the raw bytes); the owning backend rejects them
// identically to any other backend.
func RouteKey(path string, body []byte) string {
	switch path {
	case "/v1/analyze":
		var req struct {
			Source   string `json:"source"`
			Language string `json:"language"`
			Mode     string `json:"mode"`
		}
		if json.Unmarshal(body, &req) != nil {
			return "raw|" + rawHash(body)
		}
		return "p|" + programKey(req.Source, req.Language) + "|" + normMode(req.Mode)
	case "/v1/query":
		var req struct {
			ProgramHash string `json:"programHash"`
			Mode        string `json:"mode"`
		}
		if json.Unmarshal(body, &req) != nil {
			return "raw|" + rawHash(body)
		}
		return "p|" + strings.ToLower(req.ProgramHash) + "|" + normMode(req.Mode)
	case "/v1/delta":
		// Sessions are per-daemon state: route by session identity,
		// not content, so every edit of a session reaches the daemon
		// holding its base.
		var req struct {
			Session  string `json:"session"`
			Language string `json:"language"`
			Mode     string `json:"mode"`
		}
		if json.Unmarshal(body, &req) != nil {
			return "raw|" + rawHash(body)
		}
		return "s|" + req.Session + "|" + normMode(req.Mode) + "|" + normLang(req.Language)
	case "/v1/batch":
		var req struct {
			Programs []struct {
				Source   string `json:"source"`
				Language string `json:"language"`
			} `json:"programs"`
			Mode     string `json:"mode"`
			Language string `json:"language"`
		}
		if json.Unmarshal(body, &req) != nil {
			return "raw|" + rawHash(body)
		}
		h := sha256.New()
		for _, p := range req.Programs {
			lang := p.Language
			if lang == "" {
				lang = req.Language
			}
			fmt.Fprintf(h, "%s\x00%s\x00", normLang(lang), p.Source)
		}
		return "b|" + hex.EncodeToString(h.Sum(nil)) + "|" + normMode(req.Mode)
	default:
		return "raw|" + path + "|" + rawHash(body)
	}
}

// programKey is the program's content identity: for core FX10 the
// parsed Program.Hash (identical for α-renamed sources, and equal to
// the programHash later /v1/query requests carry); for other
// languages a hash of the language and raw source — cheaper than
// lowering at the router, still deterministic.
func programKey(source, language string) string {
	lang := normLang(language)
	if lang == "fx10" {
		if p, err := parser.Parse(source); err == nil {
			h := p.Hash()
			return hex.EncodeToString(h[:])
		}
	}
	return lang + ":" + rawHash([]byte(source))
}

func rawHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func normMode(m string) string {
	switch m {
	case "ci", "insensitive", "context-insensitive":
		return "ci"
	default:
		return "cs"
	}
}

func normLang(l string) string {
	l = strings.ToLower(strings.TrimSpace(l))
	if l == "" {
		return "fx10"
	}
	return l
}

// RouterMetrics is the router's expvar registry, one "fleet" section
// in the same conventions as the daemon's /metrics.
type RouterMetrics struct {
	vars      *expvar.Map
	routed    *expvar.Map // responses served, per backend
	keyed     *expvar.Map // requests keyed, per endpoint path
	failovers *expvar.Int // candidate attempts after the first
	reroutes  *expvar.Int // requests served by a non-primary or with the ring degraded
	unrouted  *expvar.Int // requests no backend could serve
}

func newRouterMetrics(backends []string, health func() (healthy, down []string)) *RouterMetrics {
	m := &RouterMetrics{
		vars:      new(expvar.Map).Init(),
		routed:    new(expvar.Map).Init(),
		keyed:     new(expvar.Map).Init(),
		failovers: new(expvar.Int),
		reroutes:  new(expvar.Int),
		unrouted:  new(expvar.Int),
	}
	fleetMap := new(expvar.Map).Init()
	fleetMap.Set("backends", expvar.Func(func() any { return backends }))
	fleetMap.Set("healthy", expvar.Func(func() any {
		h, _ := health()
		if h == nil {
			h = []string{}
		}
		return h
	}))
	fleetMap.Set("down", expvar.Func(func() any {
		_, d := health()
		if d == nil {
			d = []string{}
		}
		return d
	}))
	fleetMap.Set("routedRequests", m.routed)
	fleetMap.Set("keyedRequests", m.keyed)
	fleetMap.Set("failovers", m.failovers)
	fleetMap.Set("reroutes", m.reroutes)
	fleetMap.Set("unrouted", m.unrouted)
	m.vars.Set("fleet", fleetMap)
	return m
}

// Expvar returns the registry's root map.
func (m *RouterMetrics) Expvar() *expvar.Map { return m.vars }

// ServeHTTP renders the registry as one JSON object.
func (m *RouterMetrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, m.vars.String())
}
