package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fx10/internal/fleet"
	"fx10/internal/server"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// runFleetScenario exercises the fleet end to end, in-process:
//
//  1. start three replicas and a consistent-hash router in front;
//  2. analyze the full workload corpus through the router and record
//     every report;
//  3. assert every replica, asked directly, returns byte-identical
//     reports (the fleet's core invariant);
//  4. kill the replica owning the corpus' hottest key mid-load and
//     keep driving traffic through the router: every request must
//     still succeed with the recorded bytes — failover is invisible.
//
// Any violated assertion is an error regardless of -strict: the
// scenario exists to be a CI gate for the fleet.
func runFleetScenario(cfg lgConfig) error {
	if cfg.addr != "" || cfg.backends != "" {
		return fmt.Errorf("scenario fleet drives in-process servers; drop -addr/-backends")
	}
	client := &http.Client{Timeout: 30 * time.Second}
	corpus := workloads.All()

	const replicas = 3
	bases := make([]string, replicas)
	shutdowns := make([]func(), replicas)
	for i := range bases {
		base, shutdown, err := selfserve(cfg)
		if err != nil {
			return err
		}
		bases[i] = base
		shutdowns[i] = shutdown
		defer shutdown()
	}

	// The router in front, on its own listener.
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Backends:    bases,
		HealthEvery: 100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	front := &http.Server{Handler: rt.Handler()}
	go func() { _ = front.Serve(ln) }()
	defer front.Close()
	frontURL := "http://" + ln.Addr().String()

	// Phase 1: the corpus through the router; record the reports.
	want := make(map[string][]byte, len(corpus))
	sources := make(map[string]string, len(corpus))
	for _, b := range corpus {
		src := syntax.Print(b.Program())
		sources[b.Name] = src
		rep, err := analyzeReport(client, frontURL, src, cfg.mode)
		if err != nil {
			return fmt.Errorf("fleet warm %s: %w", b.Name, err)
		}
		want[b.Name] = rep
	}

	// Phase 2: every replica directly — byte-identical reports.
	for i, base := range bases {
		for _, b := range corpus {
			rep, err := analyzeReport(client, base, sources[b.Name], cfg.mode)
			if err != nil {
				return fmt.Errorf("replica %d %s: %w", i, b.Name, err)
			}
			if !bytes.Equal(rep, want[b.Name]) {
				return fmt.Errorf("replica %d: report for %s diverges from the routed run", i, b.Name)
			}
		}
	}

	// Phase 3: kill the owner of the first workload's key mid-load.
	victimKey := "p|" + hashOf(want, corpus[0].Name) + "|" + cfg.mode
	victim := rt.Ring().Lookup(victimKey)
	victimIdx := -1
	for i, b := range bases {
		if b == victim {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		return fmt.Errorf("ring owner %s is not a replica", victim)
	}

	var (
		wg        sync.WaitGroup
		failures  atomic.Int64
		mismatch  atomic.Int64
		completed atomic.Int64
		killAt    = time.Now().Add(300 * time.Millisecond)
		stopAt    = time.Now().Add(1200 * time.Millisecond)
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				b := corpus[(w+int(completed.Add(1)))%len(corpus)]
				rep, err := analyzeReport(client, frontURL, sources[b.Name], cfg.mode)
				if err != nil {
					failures.Add(1)
					continue
				}
				if !bytes.Equal(rep, want[b.Name]) {
					mismatch.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(time.Until(killAt))
	shutdowns[victimIdx]()
	wg.Wait()

	if n := failures.Load(); n > 0 {
		return fmt.Errorf("fleet kill: %d requests failed during failover", n)
	}
	if n := mismatch.Load(); n > 0 {
		return fmt.Errorf("fleet kill: %d responses diverged after failover", n)
	}
	fmt.Fprintf(os.Stdout,
		"fleet scenario: %d workloads byte-identical across %d replicas; %d requests served through the kill of replica %d with zero failures\n",
		len(corpus), replicas, completed.Load(), victimIdx)
	return nil
}

// analyzeReport posts one analyze and returns the report's canonical
// JSON bytes (mhp.Report marshals deterministically).
func analyzeReport(client *http.Client, base, source, mode string) ([]byte, error) {
	var resp server.AnalyzeResponse
	status, err := post(client, base+"/v1/analyze", server.AnalyzeRequest{Source: source, Mode: mode}, &resp)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d", status)
	}
	return json.Marshal(resp.Report)
}

// hashOf recovers the program hash embedded in a recorded report.
func hashOf(reports map[string][]byte, name string) string {
	var rep struct {
		ProgramHash string `json:"programHash"`
	}
	if json.Unmarshal(reports[name], &rep) == nil {
		return rep.ProgramHash
	}
	return ""
}
