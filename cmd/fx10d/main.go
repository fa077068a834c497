// Command fx10d is the MHP analysis daemon: internal/server behind a
// plain net/http listener, with expvar metrics published at
// /debug/vars (in addition to the service's own /metrics) and a
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	fx10d [flags]
//
// See DESIGN.md §8 for the API.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fx10/internal/server"
)

func main() {
	if err := runServe(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fx10d:", err)
		os.Exit(1)
	}
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("fx10d", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8710", "listen address")
		workers    = fs.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "admission queue depth (0 = 4×workers)")
		cache      = fs.Int("cache", 0, "program cache entries (0 = default)")
		solveTO    = fs.Duration("solve-timeout", 30*time.Second, "per-solve ceiling")
		reqTO      = fs.Duration("request-timeout", 10*time.Second, "per-request deadline")
		drainGrace = fs.Duration("drain-grace", 15*time.Second, "max time to finish in-flight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// fx10d has no subcommands, so a positional word is a mistake:
	// report it rather than start a daemon nobody asked for.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (usage: fx10d [flags])", fs.Arg(0))
	}

	srv, err := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cache,
		SolveTimeout:   *solveTO,
		RequestTimeout: *reqTO,
	})
	if err != nil {
		return err
	}
	// The daemon owns the process, so publishing globally is safe
	// here (tests must not: expvar.Publish panics on duplicates).
	expvar.Publish("fx10d", srv.Metrics().Expvar())

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fx10d: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "fx10d: %v, draining\n", sig)
	}

	// Drain: health flips to 503 so load balancers stop routing here,
	// in-flight requests get drainGrace to land, then outstanding
	// solves are cancelled.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	err = httpSrv.Shutdown(ctx)
	srv.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(os.Stderr, "fx10d: stopped")
	return nil
}
