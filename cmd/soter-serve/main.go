// Command soter-serve runs the simulation-as-a-service layer: a long-running
// HTTP/JSON server accepting batch simulation jobs against the scenario
// registry, running them on the parallel fleet engine, streaming live
// progress as JSONL event streams and answering repeated grid cells from the
// deterministic result cache.
//
// Usage:
//
//	soter-serve [flags]
//
// Quickstart:
//
//	soter-serve -addr :8080 &
//	curl -s localhost:8080/scenarios | jq .
//	id=$(curl -s -X POST localhost:8080/jobs \
//	    -d '{"scenario":"surveillance-city","overrides":{"duration":"30s"},"seed_count":8}' | jq -r .id)
//	curl -sN localhost:8080/jobs/$id/events      # live JSONL event stream
//	curl -s localhost:8080/jobs/$id | jq .report # aggregated verdicts
//	curl -s localhost:8080/stats | jq .store     # per-tier hit/miss counters
//
// Results live in a tiered content-addressed store (internal/store). With
// -store-dir the store gains a crash-safe disk tier: a restarted server
// answers previous sweeps without simulating. With -peers a group of servers
// forms one logical cache — missing results are fetched from the sibling
// that computed them (GET /store/{key}, rendezvous-hashed per fingerprint)
// before falling back to local compute:
//
//	soter-serve -addr :8080 -store-dir /var/soter/a -peers http://localhost:8081 &
//	soter-serve -addr :8081 -store-dir /var/soter/b -peers http://localhost:8080 &
//
// Besides plain sweep jobs the server runs falsification campaigns (POST
// /falsify) and statistical certification campaigns (POST /certify — is the
// cell's probability of a crash or a φInv violation below a threshold at a
// confidence level?); both stream progress over the same /jobs/{id}/events
// endpoint and serve their terminal results at /jobs/{id}/report:
//
//	cid=$(curl -s -X POST localhost:8080/certify \
//	    -d '{"scenario":"surveillance-city","duration":"30s","threshold":0.05}' | jq -r .id)
//	curl -sN localhost:8080/jobs/$cid/events?kinds=certify_progress
//	curl -s localhost:8080/jobs/$cid/report | jq .verdict
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight jobs are
// cancelled (their partial reports are kept and event streams closed), then
// the listener drains.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soter-serve: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "fleet workers per job (0 = GOMAXPROCS)")
		jobs     = flag.Int("jobs", 1, "jobs running concurrently")
		queue    = flag.Int("queue", 64, "max queued jobs")
		cacheCap = flag.Int("cache", 0, "result store memory-tier entries (LRU bound; 0 = default)")
		storeDir = flag.String("store-dir", "", "result store disk-tier directory (empty = memory only; results survive restarts)")
		storeMax = flag.Int64("store-max-bytes", 0, "disk-tier byte bound (0 = default 1 GiB); LRU-by-atime eviction beyond it")
		peers    = flag.String("peers", "", "comma-separated sibling soter-serve base URLs (e.g. http://10.0.0.2:8080); missing results are fetched from peers before simulating")
	)
	flag.Parse()

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	svc, err := service.New(service.Config{
		Workers:        *workers,
		JobConcurrency: *jobs,
		QueueDepth:     *queue,
		CacheEntries:   *cacheCap,
		StoreDir:       *storeDir,
		StoreMaxBytes:  *storeMax,
		Peers:          peerList,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving %d scenarios on %s", len(scenario.Names()), *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down: cancelling jobs, draining connections")
	// Closing the service first ends every job (and with it every open event
	// stream), so Shutdown is not held up by long-lived streaming responses.
	svc.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return <-errCh
}
