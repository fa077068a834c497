// Package fleet is one buffered HTTP proxy hop in front of one fx10d.
// The bench/ module sends a sample of requests both through the hop
// and directly, and reports the difference as fleet.proxy_p50_us. No
// command in this module uses the package; it goes with that metric.
package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// maxBody bounds a relayed request body. It is above the daemon's
// default 1 MiB, so the daemon, not the hop, refuses what it refuses.
const maxBody = 8 << 20

// RouterConfig names the hop's backend.
type RouterConfig struct {
	// Backends holds exactly one absolute http or https base URL
	// ("http://127.0.0.1:8711").
	Backends []string
}

// Router forwards each request, body buffered, to the same path on
// its backend and relays the answer's status, Content-Type and body.
type Router struct {
	backend string
	client  *http.Client
}

// NewRouter returns a hop to cfg's one backend.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) != 1 {
		return nil, fmt.Errorf("fleet: want exactly one backend, got %d", len(cfg.Backends))
	}
	b := cfg.Backends[0]
	if u, err := url.Parse(b); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("fleet: backend %q is not an absolute http(s) URL", b)
	}
	return &Router{backend: b, client: &http.Client{Transport: &http.Transport{}}}, nil
}

// Handler returns the hop's handler.
func (rt *Router) Handler() http.Handler { return http.HandlerFunc(rt.forward) }

// Close releases the hop's idle connections to its backend.
func (rt *Router) Close() { rt.client.CloseIdleConnections() }

func (rt *Router) forward(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		http.Error(w, "body read failed", 499)
		return
	}
	if len(body) > maxBody {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, rt.backend+r.URL.Path, bytes.NewReader(body))
	var resp *http.Response
	if err == nil {
		// A nil value sends, and below relays, no Content-Type at all.
		req.Header["Content-Type"] = r.Header["Content-Type"]
		resp, err = rt.client.Do(req)
	}
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		http.Error(w, "backend unreachable: "+err.Error(), http.StatusBadGateway)
		return
	}
	w.Header()["Content-Type"] = resp.Header["Content-Type"]
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}
