// fsaiserve is the solver-as-a-service daemon: an HTTP server that ingests
// sparse SPD matrices, caches prepared FSAI preconditioners by content
// fingerprint, and runs distributed CG solve jobs with admission control
// and per-job deadlines (see internal/serve and README "Running the
// server").
//
// Usage:
//
//	fsaiserve [-addr :8097] [-max-inflight 4] [-max-queue 8]
//	          [-cache-mb 256] [-matrix-cache-mb 256]
//	          [-job-timeout 2m] [-drain-timeout 30s] [-transport sim]
//	          [-batch-max 8] [-batch-window 0] [-v]
//	fsaiserve -probe http://localhost:8097/healthz
//
// The daemon runs until SIGINT/SIGTERM, then drains: the health check
// flips to 503, new solves are refused, running jobs finish (up to
// -drain-timeout), and the process exits. -probe turns the binary into its
// own health-check client (for Makefiles and container probes; no curl
// needed): it GETs the URL and exits 0 on HTTP 200.
//
// Setting -batch-window > 0 enables job coalescing: /solve requests that
// share a prepared system and solver options and arrive within the window
// are merged — up to -batch-max — into one batched multi-RHS solve under a
// single admission slot; each client still gets its own column's solution,
// bit-identical to a solo solve.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fsaicomm/internal/mprun"
	"fsaicomm/internal/serve"
)

func main() {
	// Jobs solved over the "tcp" transport spawn one process per rank by
	// re-executing this binary; those copies divert into worker mode here.
	mprun.MaybeWorker()
	var (
		addr          = flag.String("addr", ":8097", "listen address")
		maxInFlight   = flag.Int("max-inflight", 4, "maximum concurrently running solve jobs")
		maxQueue      = flag.Int("max-queue", 8, "maximum queued solve jobs (beyond it: 429); negative disables queueing")
		cacheMB       = flag.Int64("cache-mb", 256, "prepared-system cache budget in MiB")
		matrixCacheMB = flag.Int64("matrix-cache-mb", 256, "uploaded-matrix cache budget in MiB")
		jobTimeout    = flag.Duration("job-timeout", 2*time.Minute, "per-job deadline (setup + solve)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs")
		verbose       = flag.Bool("v", false, "log each job")
		transport     = flag.String("transport", "sim", "rank backend for requests that do not pick one: sim (goroutine ranks) or tcp (one OS process per rank)")
		probe         = flag.String("probe", "", "probe the given URL (expect HTTP 200) and exit; no server is started")
		batchMax      = flag.Int("batch-max", 8, "maximum solve jobs coalesced into one batched solve (needs -batch-window > 0)")
		batchWindow   = flag.Duration("batch-window", 0, "how long the first job of a batch waits for same-system followers; 0 disables coalescing")
	)
	flag.Parse()

	if *probe != "" {
		os.Exit(runProbe(*probe))
	}
	if *transport != "sim" && *transport != "tcp" {
		fmt.Fprintf(os.Stderr, "fsaiserve: unknown transport %q (want sim or tcp)\n", *transport)
		os.Exit(2)
	}

	cfg := serve.Config{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		CacheBytes:       *cacheMB << 20,
		MatrixCacheBytes: *matrixCacheMB << 20,
		JobTimeout:       *jobTimeout,
		DefaultTransport: *transport,
		BatchMax:         *batchMax,
		BatchWindow:      *batchWindow,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, cfg, *drainTimeout, nil); err != nil {
		log.Fatal(err)
	}
}

func runProbe(url string) int {
	client := &http.Client{Timeout: 3 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe %s: %v\n", url, err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Say why: a draining daemon answers 503 with {"status":"draining"}.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		fmt.Fprintf(os.Stderr, "probe %s: HTTP %d %s\n", url, resp.StatusCode, bytes.TrimSpace(body))
		return 1
	}
	fmt.Printf("probe %s: ok\n", url)
	return 0
}

// run serves until ctx is canceled, then drains and shuts the listener
// down. If ready is non-nil it receives the bound address once the server
// is listening (the e2e test listens on :0 and needs the resolved port).
func run(ctx context.Context, addr string, cfg serve.Config, drainTimeout time.Duration, ready chan<- string) error {
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("fsaiserve: listening on %s (max %d in flight, %d queued, %s/job)",
		ln.Addr(), cfg.MaxInFlight, cfg.MaxQueue, cfg.JobTimeout)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	select {
	case err := <-errc:
		return fmt.Errorf("fsaiserve: %w", err)
	case <-ctx.Done():
	}
	log.Printf("fsaiserve: draining (up to %s)", drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Refuse new work and wait for running jobs, then close the listener
	// and idle connections.
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("fsaiserve: %v", err)
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("fsaiserve: shutdown: %w", err)
	}
	log.Printf("fsaiserve: stopped")
	return nil
}
