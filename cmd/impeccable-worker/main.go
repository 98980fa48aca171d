// Command impeccable-worker is a remote campaign executor: it pulls
// jobs from an impeccable-server coordinator over the lease API, runs
// each campaign locally against a per-worker score cache, heartbeats
// while it runs, and posts back the result summary plus the score-cache
// delta. Point any number of workers (across any number of machines)
// at one coordinator started with -workers=0 and the single binary
// becomes a coordinator + N workers cluster.
//
// Usage:
//
//	impeccable-worker -server http://host:8080 [-id NAME] [-ttl D]
//	                  [-poll D] [-campaign-workers N] [-shards N]
//	                  [-max-cache N] [-metrics ADDR] [-pprof]
//
// Fault tolerance lives in the lease protocol, not in this process: a
// worker killed mid-job simply stops heartbeating, the coordinator
// re-enqueues the job under its original ID (Seed and LibOffset
// preserved), and the rerun on any other worker is byte-identical
// science. SIGINT/SIGTERM stop the worker after aborting any run in
// flight; the coordinator re-enqueues that job the same way.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"impeccable/internal/obs"
	"impeccable/internal/service/worker"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "coordinator base URL")
	id := flag.String("id", "", "worker identity in leases and listings (empty = <hostname>-<pid>)")
	ttl := flag.Duration("ttl", 0, "requested lease TTL; losing heartbeats for this long re-enqueues the job (0 = coordinator default)")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle wait between lease attempts")
	campaignWorkers := flag.Int("campaign-workers", 0, "worker pool width inside each campaign (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 16, "per-worker cache shard count")
	maxCache := flag.Int("max-cache", 0, "per-worker score-cache entry bound (0 = unbounded)")
	metricsAddr := flag.String("metrics", "", "listen address for the worker's own /metrics exposition (empty = disabled)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics listener")
	flag.Parse()

	w := worker.New(worker.Options{
		Server:          *server,
		ID:              *id,
		TTL:             *ttl,
		Poll:            *poll,
		CampaignWorkers: *campaignWorkers,
		CacheShards:     *shards,
		MaxCacheEntries: *maxCache,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metricsHandler(w))
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
		log.Printf("worker metrics on %s/metrics", *metricsAddr)
	} else if *pprofOn {
		log.Printf("-pprof requires -metrics (it mounts on that listener); ignoring")
	}
	log.Printf("impeccable-worker %s pulling from %s", w.ID(), *server)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("worker: %v", err)
	}
	log.Printf("impeccable-worker %s stopped (%d jobs completed)", w.ID(), w.Completed())
}

// metricsHandler exposes the worker's own counters — jobs completed
// and the persistent per-worker score cache — in the Prometheus text
// format. The series are mirrored from Worker's stats at scrape time
// (obs.Counter.Set ignores regressions, so the mirrors stay monotone).
func metricsHandler(w *worker.Worker) http.Handler {
	reg := obs.NewRegistry()
	completed := reg.Counter("impeccable_worker_jobs_completed_total",
		"Jobs this worker has finalized (done, failed or canceled).")
	hits := reg.CounterVec("impeccable_worker_local_cache_hits_total",
		"Persistent per-worker cache hits, by cache.", "cache")
	misses := reg.CounterVec("impeccable_worker_local_cache_misses_total",
		"Persistent per-worker cache misses, by cache.", "cache")
	evictions := reg.CounterVec("impeccable_worker_local_cache_evictions_total",
		"Persistent per-worker cache evictions, by cache.", "cache")
	entries := reg.GaugeVec("impeccable_worker_local_cache_entries",
		"Entries currently in the per-worker cache, by cache.", "cache")
	reg.OnCollect(func() {
		completed.Set(float64(w.Completed()))
		st := w.ScoreCacheStats()
		hits.With("score").Set(float64(st.Hits))
		misses.With("score").Set(float64(st.Misses))
		evictions.With("score").Set(float64(st.Evictions))
		entries.With("score").Set(float64(st.Entries))
	})
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rw.Header().Set("Cache-Control", "no-store")
		_, _ = reg.WriteTo(rw)
	})
}
