// Command regressd serves the verification flow: a long-lived daemon that
// accepts regression jobs over HTTP/JSON, runs them on a bounded executor
// pool against a shared content-addressed result cache (so overlapping or
// repeated submissions dedupe at the work-unit level), and serves reports,
// coverage, alignment, kernel profiles and waveform artifacts back — plus an
// embedded no-build dashboard on the same port. Running jobs share one
// simulation budget of -slots × -workers units at once: a job running alone
// simulates on all of it.
//
// Usage:
//
//	regressd -addr :8041 -cache ./rc           # serve with a shared result store
//	regressd -addr :8041 -cache ./rc -slots 4  # up to 4 jobs running concurrently
//	regressd -workers 8                        # 8 simulations per job slot
//
// Submit and watch a job:
//
//	curl -s -X POST localhost:8041/api/v1/jobs -d '{"matrix":true,"quick":true}'
//	curl -s -X POST localhost:8041/api/v1/jobs \
//	    -d '{"matrix":true,"kernelstats":true,"seeds":[1,2,3,4]}'
//	curl -s localhost:8041/api/v1/jobs/j0001
//	curl -s localhost:8041/api/v1/jobs/j0001/report
//
// SIGINT/SIGTERM drains gracefully: the queue closes, queued jobs cancel,
// running jobs finish (or are cancelled after -drain-timeout), then the HTTP
// server shuts down and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crve/internal/api"
	"crve/internal/jobs"
	"crve/internal/regress"
	"crve/internal/web"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so idle or trickling connections cannot pin the daemon's
// goroutines and file descriptors.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr         = flag.String("addr", ":8041", "listen address")
		cacheDir     = flag.String("cache", "", "shared result cache directory (recommended: dedupes repeated and concurrent jobs)")
		workers      = flag.Int("workers", 0, "simulations per job slot; running jobs share them (0 = GOMAXPROCS)")
		slots        = flag.Int("slots", 2, "jobs running concurrently")
		queueDepth   = flag.Int("queue", 256, "submission queue depth")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for running jobs before cancelling them")
		verbose      = flag.Bool("v", false, "log job transitions")
	)
	flag.Parse()
	if err := run(*addr, *cacheDir, *workers, *slots, *queueDepth, *drainTimeout, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "regressd:", err)
		os.Exit(1)
	}
}

func run(addr, cacheDir string, workers, slots, queueDepth int, drainTimeout time.Duration, verbose bool) error {
	opt := jobs.Options{Workers: workers, Slots: slots, QueueDepth: queueDepth}
	if verbose {
		opt.Log = os.Stderr
	}
	if cacheDir != "" {
		cache, err := regress.OpenCache(cacheDir)
		if err != nil {
			return err
		}
		opt.Cache = cache
	}
	mgr := jobs.NewManager(opt)

	mux := http.NewServeMux()
	apiHandler := api.New(mgr).Handler()
	mux.Handle("/api/", apiHandler)
	mux.Handle("/healthz", apiHandler)
	mux.Handle("/", web.New(mgr).Handler())
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "regressd: listening on %s (version %s)\n", addr, regress.CodeVersion())
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Fprintln(os.Stderr, "regressd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "regressd: drain:", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "regressd: bye")
	return nil
}
