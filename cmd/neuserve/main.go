// Command neuserve runs the NeuMMU simulator as a long-lived HTTP
// service: many clients submit simulation and sweep requests over JSON,
// one work-conserving queue runs them on a bounded worker budget, and a
// content-addressed cache answers repeated or overlapping design-space
// cells without re-simulating (see internal/serve for the API and its
// determinism guarantee).
//
// Usage:
//
//	neuserve                          # listen on :8077, all CPUs
//	neuserve -addr 127.0.0.1:9000     # explicit listen address
//	neuserve -workers 4               # bound scheduler parallelism
//	neuserve -queue 64 -cache-mb 128  # admission + cache bounds
//
// -shards is accepted and ignored (with a warning): the scheduler was once
// hash-sharded, and is now one queue that every worker drains.
//
// Scale-out: a fleet of neuserve processes can serve one sweep. Workers
// are plain neuserve instances (-role worker is an explicit alias for the
// default single-process mode; every instance speaks the cluster wire
// protocol on POST /v1/cells). A coordinator answers through the same
// HTTP front end as a worker — every endpoint but /v1/figures — shards
// the grid across the fleet by consistent hashing on the
// content-addressed cell key, and merges the streams back byte-identical
// to a single process (see internal/cluster):
//
//	neuserve -addr :8081 &            # worker 1
//	neuserve -addr :8082 &            # worker 2
//	neuserve -role coordinator -addr :8080 \
//	         -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Quickstart against a running server:
//
//	curl localhost:8077/v1/figures                       # registry
//	curl localhost:8077/v1/figures/fig8?quick=1          # one figure
//	curl -d '{"quick":true,"mmus":["iommu","neummu"]}' \
//	     localhost:8077/v1/sweep                         # NDJSON stream
//	curl localhost:8077/metrics                          # ops counters
//	curl localhost:8077/metrics?format=prometheus        # same, for scrapers
//	curl localhost:8077/debug/traces                     # recent traces + slow cells
//
// Durability: -store-dir gives the process a content-addressed cell store
// (bounded by -store-bytes, GC'd coldest-first), in one file format for
// both roles. A worker keeps it behind its RAM cache, so a restarted
// worker answers previously simulated cells from disk without
// re-simulating. A coordinator saves every cell its workers answer, so a
// restarted coordinator, a retried request or an overlapping sweep
// answers the cells already stored without dispatching them. Each
// process needs its own directory; a coordinator and a worker must not
// share one:
//
//	neuserve -addr :8081 -store-dir /var/cache/neuserve/w1 &
//	neuserve -role coordinator -addr :8080 -store-dir /var/cache/neuserve/coord \
//	         -peers http://127.0.0.1:8081
//
// Observability: every request is traced end to end. An inbound
// X-Trace-Id is honored (one is minted otherwise), propagated to workers
// on cluster dispatch, and echoed on the response; per-cell spans with
// per-stage latency attribution are served from GET /debug/traces.
// Request logs are structured (logfmt by default, -log-json for JSON
// lines) and carry the trace ID. -debug-addr starts a separate listener
// with net/http/pprof for CPU/heap profiling, kept off the service port
// so profiling is never exposed to clients by accident.
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests drain
// (bounded by -drain-timeout), queued jobs finish, and pending disk-tier
// writes are drained to disk before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neummu/internal/cluster"
	"neummu/internal/serve"
	"neummu/internal/store"
	"neummu/internal/trace"
)

func main() {
	var (
		addr    = flag.String("addr", ":8077", "listen address")
		role    = flag.String("role", "", "process role: '' or 'worker' (serve simulations), 'coordinator' (shard sweeps across -peers)")
		workers = flag.Int("workers", 0, "total simulation workers (0 = all CPUs)")
		queue   = flag.Int("queue", 0, "scheduler job-queue bound; a full queue answers 429 (0 = -max-cells)")
		cacheMB = flag.Int("cache-mb", 0, "cell result-cache bound in MiB (0 = 64)")
		figMB   = flag.Int("fig-cache-mb", 0, "rendered-figure cache bound in MiB (0 = 16)")
		cells   = flag.Int("max-cells", 0, "per-request sweep cell bound (0 = 4096)")
		drain   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")

		// Durability flags, meaningful for both roles: each keeps its
		// cell store there.
		storeDir   = flag.String("store-dir", "", "durable cell-store directory, one per process ('' = RAM-only)")
		storeBytes = flag.Int64("store-bytes", 0, "cell-store byte budget, coldest cells evicted first (0 = 256 MiB)")

		// Coordinator-role flags.
		peers    = flag.String("peers", "", "coordinator: comma-separated worker base URLs")
		replicas = flag.Int("replicas", 0, "coordinator: virtual nodes per worker on the hash ring (0 = 64)")
		retries  = flag.Int("retries", 0, "coordinator: re-route attempts per cell after worker failures (0 = 2)")
		shardTO  = flag.Duration("shard-timeout", 0, "coordinator: worker stream-inactivity bound before re-routing a shard (0 = 5m)")
		healthIv = flag.Duration("health-interval", 0, "coordinator: worker /healthz probe period (0 = 2s)")

		// Observability flags (both roles).
		logJSON   = flag.Bool("log-json", false, "emit JSON log lines instead of logfmt")
		debugAddr = flag.String("debug-addr", "", "separate listen address for net/http/pprof ('' = disabled)")
		traceRing = flag.Int("trace-ring", 0, "trace span ring-buffer capacity (0 = 512)")
		slowCell  = flag.Duration("slow-cell-threshold", 0, "cells whose compute stage exceeds this land in the slow-cell log (0 = 100ms, negative disables)")
		slowCount = flag.Int("slow-cells", 0, "slow-cell log capacity, slowest kept (0 = 32)")
	)
	flag.Int("shards", 0, "deprecated and ignored: the scheduler is one queue drained by every worker")
	flag.Parse()

	var logH slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		logH = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(logH).With("role", roleName(*role))

	// Refuse flags that don't apply to the selected role: silently
	// ignoring -peers on a worker (or -workers on a coordinator) leaves
	// an operator with a process that looks configured but is not.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	coordOnly := []string{"peers", "replicas", "retries", "shard-timeout", "health-interval"}
	workerOnly := []string{"workers", "shards", "queue", "cache-mb", "fig-cache-mb"}
	misuse := func(names []string, why string) {
		for _, n := range names {
			if set[n] {
				fmt.Fprintf(os.Stderr, "neuserve: -%s %s\n", n, why)
				os.Exit(2)
			}
		}
	}
	if *role == "coordinator" {
		misuse(workerOnly, "configures the simulation scheduler, which a coordinator does not run (drop it, or set it on the workers)")
	} else {
		misuse(coordOnly, fmt.Sprintf("requires -role coordinator (role is %q)", *role))
	}
	if set["shards"] {
		logger.Warn("-shards is deprecated and ignored: the scheduler is one queue drained by every worker")
	}

	traceCfg := trace.Config{
		RingSize:      *traceRing,
		SlowThreshold: *slowCell,
		SlowCount:     *slowCount,
		Logger:        logger,
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Config{Dir: *storeDir, MaxBytes: *storeBytes})
		if err != nil {
			logger.Error("opening -store-dir", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
	}

	var handler http.Handler
	var closeFn func()
	switch *role {
	case "", "worker":
		s := serve.New(serve.Config{
			Workers:            *workers,
			QueueDepth:         *queue,
			CacheBytes:         int64(*cacheMB) << 20,
			FigureCacheBytes:   int64(*figMB) << 20,
			MaxCellsPerRequest: *cells,
			Store:              st,
			Trace:              traceCfg,
			Logger:             logger,
		})
		handler, closeFn = s, s.Close
	case "coordinator":
		if *peers == "" {
			logger.Error("-role coordinator requires -peers")
			os.Exit(2)
		}
		c, err := cluster.New(cluster.Config{
			Workers:            strings.Split(*peers, ","),
			Replicas:           *replicas,
			MaxRetries:         *retries,
			ShardTimeout:       *shardTO,
			HealthInterval:     *healthIv,
			MaxCellsPerRequest: *cells,
			Store:              st,
			Trace:              traceCfg,
			Logger:             logger,
		})
		if err != nil {
			logger.Error("coordinator start", "err", err)
			os.Exit(2)
		}
		handler, closeFn = c, c.Close
	default:
		logger.Error("unknown -role (have worker, coordinator)", "flag", *role)
		os.Exit(2)
	}
	if st != nil {
		// Drain-to-disk: the server or coordinator stops first (a worker
		// also finishes its queued jobs), then the store writes what is
		// still pending and closes.
		stop := closeFn
		closeFn = func() {
			stop()
			st.Close()
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	if *debugAddr != "" {
		// pprof gets its own listener and mux so profiling endpoints are
		// opt-in and never reachable on the service port.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("debug server listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				logger.Error("debug server", "err", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		if *role == "coordinator" {
			logger.Info("listening", "addr", *addr, "workers", *peers)
		} else {
			logger.Info("listening", "addr", *addr)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		// ListenAndServe only returns on failure here (Shutdown is the
		// other path, below).
		logger.Error("serve", "err", err)
		closeFn()
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "err", err)
	}
	// HTTP is quiesced; now stop admission (worker) or the health
	// checker (coordinator) and let queued work drain.
	closeFn()
}

func roleName(role string) string {
	if role == "" {
		return "worker"
	}
	return role
}
