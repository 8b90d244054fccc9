// Command rustprobed serves the rustprobe analysis pipeline as a
// long-running HTTP JSON daemon backed by the concurrent engine
// (bounded worker pool + per-detector parallelism + content-hash LRU
// result cache).
//
// Endpoints:
//
//	POST /v1/analyze        {"files": {"lib.rs": "..."}} or {"corpus": "patterns"},
//	                        optional {"detectors": ["use-after-free", ...]}
//	POST /v1/analyze-batch  {"files": {"a.rs": "...", "b.rs": "..."}}: many named
//	                        files analyzed independently, per-file findings and
//	                        isolated per-file errors
//	POST /v1/sessions/{repo}/push  repo-keyed incremental analysis: push the full
//	                        file map ({"files": ...}) or a body-only diff
//	                        ({"changed": ..., "removed": [...]}) against the live
//	                        session; warm pushes re-run only the dirty callgraph
//	                        closure and replay cached findings
//	GET  /v1/detectors      detector registry
//	GET  /healthz       liveness
//	GET  /stats         engine counters (cache, queue, per-stage latency)
//	GET  /metrics       the same counters in Prometheus text format
//	GET  /debug/pprof/  net/http/pprof (only with -pprof)
//
// The serving layer is hardened for real traffic: a panicking analysis
// pass costs only its own request (500) and never a pool worker, a full
// queue fails fast with 503 + Retry-After (-queue-reject), identical
// in-flight requests are singleflighted into one analysis, and a client
// that times out or disconnects cancels its job instead of burning a
// worker.
//
// With -store-dir the daemon keeps a persistent content-addressed result
// store under the in-memory LRU: results survive restarts, a fresh
// process serves previously-analyzed content from disk (visible as
// rustprobed_store_hits_total in /metrics), and replicas sharing the
// directory share each other's work. Entries are versioned against the
// analyzer + detector set, so upgrading the binary self-invalidates
// stale results, and corrupt or truncated entries are quarantined
// instead of failing startup or serving garbage.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests finish, then the engine drains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rustprobe/internal/difftest"
	"rustprobe/internal/engine"
	"rustprobe/internal/sessionpool"
	"rustprobe/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8642", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "analysis worker pool size")
		queue      = flag.Int("queue", 64, "pending-job queue depth")
		cacheCap   = flag.Int("cache", 256, "result cache capacity in entries (LRU; negative disables)")
		timeout    = flag.Duration("request-timeout", 30*time.Second, "per-request analysis budget (0 disables)")
		reject     = flag.Bool("queue-reject", true, "fail fast with 503 + Retry-After when the job queue is full (false blocks instead)")
		pprofOn    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		storeDir   = flag.String("store-dir", "", "directory for the persistent content-addressed result store (empty disables; results then live only in the in-memory LRU)")
		selftest   = flag.Bool("selftest", false, "run the differential self-check through the configured engine and exit; non-zero on any violation")
		seeds      = flag.Int64("seeds", 200, "seed count for -selftest")
		precise    = flag.Bool("precise", false, "force the SafeDrop-style path-sensitive precise mode for every request (clients can also opt in per request with \"precise\": true); also applies to -selftest")
		sessions   = flag.Int("sessions", sessionpool.DefaultMaxSessions, "max live incremental analysis sessions for /v1/sessions (LRU-evicted beyond this; 0 disables the endpoint)")
		sessionTTL = flag.Duration("session-ttl", 30*time.Minute, "evict a session idle longer than this (0 disables idle eviction)")
	)
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, engine.StoreVersion())
		if err != nil {
			log.Fatalf("rustprobed: open result store %s: %v", *storeDir, err)
		}
		log.Printf("rustprobed: result store at %s (version %s, %d entries)", *storeDir, engine.StoreVersion(), st.Len())
	}

	eng := engine.New(engine.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheCapacity: *cacheCap,
		QueueReject:   *reject,
		Store:         st,
	})

	if *selftest {
		// Preflight: the generated-corpus cross-check runs through the
		// exact pool/cache configuration the daemon would serve with.
		s := difftest.RunWithEngineMode(0, *seeds, eng, *precise)
		fmt.Print(s.Table())
		eng.Close()
		if v := s.Violations(); len(v) > 0 {
			fmt.Fprintf(os.Stderr, "rustprobed: selftest failed with %d violation(s)\n", len(v))
			os.Exit(2)
		}
		return
	}
	var pool *sessionpool.Pool
	if *sessions > 0 {
		pool = sessionpool.New(eng, sessionpool.Config{
			MaxSessions: *sessions,
			IdleTTL:     *sessionTTL,
			Precise:     *precise,
		})
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newServer(eng, serverOptions{timeout: *timeout, pprof: *pprofOn, precise: *precise, pool: pool}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("rustprobed: listening on %s (workers=%d queue=%d cache=%d timeout=%s queue-reject=%t pprof=%t)",
			*addr, *workers, *queue, *cacheCap, *timeout, *reject, *pprofOn)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			eng.Close()
			log.Fatalf("rustprobed: %v", err)
		}
	case <-ctx.Done():
		log.Printf("rustprobed: signal received, shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "rustprobed: shutdown: %v\n", err)
		}
	}
	if pool != nil {
		pool.Close()
	}
	eng.Close()
	log.Printf("rustprobed: stopped")
}
