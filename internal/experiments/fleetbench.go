package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fx10/internal/fleet"
	"fx10/internal/server"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// The fleet bench measures the fleet router: it drives an in-process
// replica set (real servers behind real loopback listeners, the
// consistent-hash router in front) with query-heavy traffic at 1, 2
// and 4 replicas — the scaling signal for a read-mostly analysis
// service whose responses are replica-independent. Written as
// BENCH_fleet.json so regressions are diffable across commits.

// FleetRow is one replica-count throughput measurement.
type FleetRow struct {
	Replicas    int     `json:"replicas"`
	Clients     int     `json:"clients"`
	Requests    int64   `json:"requests"`
	DurationSec float64 `json:"duration_sec"`
	ReqPerSec   float64 `json:"req_per_sec"`
}

// FleetBench is the full sweep plus environment.
type FleetBench struct {
	Go         string     `json:"go"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Fleet      []FleetRow `json:"fleet"`
}

// RunFleetBench measures routed throughput at 1/2/4 replicas.
func RunFleetBench() (FleetBench, error) {
	bench := FleetBench{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, n := range []int{1, 2, 4} {
		row, err := measureFleet(n)
		if err != nil {
			return bench, err
		}
		bench.Fleet = append(bench.Fleet, row)
	}
	return bench, nil
}

// measureFleet drives one replica set through the router for a fixed
// window of query-heavy traffic.
func measureFleet(replicas int) (FleetRow, error) {
	const (
		clients = 8
		window  = 2 * time.Second
	)
	row := FleetRow{Replicas: replicas, Clients: clients, DurationSec: window.Seconds()}

	type replica struct {
		srv  *server.Server
		http *http.Server
		url  string
	}
	var reps []replica
	defer func() {
		for _, r := range reps {
			_ = r.http.Close()
			r.srv.Close()
		}
	}()
	var bases []string
	for i := 0; i < replicas; i++ {
		srv, err := server.New(server.Config{})
		if err != nil {
			return row, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return row, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		url := "http://" + ln.Addr().String()
		reps = append(reps, replica{srv: srv, http: hs, url: url})
		bases = append(bases, url)
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{Backends: bases})
	if err != nil {
		return row, err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return row, err
	}
	front := &http.Server{Handler: rt.Handler()}
	go func() { _ = front.Serve(ln) }()
	defer front.Close()
	frontURL := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: 30 * time.Second}
	// Warm every replica directly so the measured window is pure
	// routed cache-hit traffic, not first-solve noise.
	type target struct {
		hash   string
		labels []string
	}
	var targets []target
	for _, wl := range workloads.All() {
		p := wl.Program()
		src := syntax.Print(p)
		var hash string
		for _, base := range bases {
			var resp struct {
				ProgramHash string `json:"programHash"`
			}
			if err := postFleetJSON(client, base+"/v1/analyze", map[string]string{"source": src}, &resp); err != nil {
				return row, fmt.Errorf("warm %s: %w", wl.Name, err)
			}
			hash = resp.ProgramHash
		}
		names := make([]string, len(p.Labels))
		for l := range p.Labels {
			names[l] = p.Labels[l].Name
		}
		targets = append(targets, target{hash: hash, labels: names})
	}

	var total atomic.Int64
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c
			for time.Now().Before(deadline) {
				t := targets[i%len(targets)]
				a := t.labels[i%len(t.labels)]
				b := t.labels[(i+1)%len(t.labels)]
				err := postFleetJSON(client, frontURL+"/v1/query", map[string]string{
					"programHash": t.hash, "a": a, "b": b,
				}, nil)
				if err == nil {
					total.Add(1)
				}
				i++
			}
		}(c)
	}
	wg.Wait()
	row.Requests = total.Load()
	row.ReqPerSec = float64(row.Requests) / window.Seconds()
	return row, nil
}

func postFleetJSON(client *http.Client, url string, body any, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, data)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// FormatFleetBench renders the sweep as an aligned table.
func FormatFleetBench(bench FleetBench) string {
	var b strings.Builder
	tw := newTable(&b, "replicas", "clients", "requests", "req/s")
	for _, r := range bench.Fleet {
		tw.row(fmt.Sprint(r.Replicas), fmt.Sprint(r.Clients), fmt.Sprint(r.Requests), fmt.Sprintf("%.0f", r.ReqPerSec))
	}
	tw.flush()
	return b.String()
}

// WriteFleetBenchJSON writes the sweep for committing as
// BENCH_fleet.json.
func WriteFleetBenchJSON(bench FleetBench, path string) error {
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
