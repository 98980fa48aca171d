// Command impeccable-server runs the IMPECCABLE campaign engine as a
// long-lived, multi-tenant HTTP service: submitted campaigns queue for
// lease-holding workers and share a sharded docking-score cache, so
// overlapping submissions dedupe their most expensive evaluations.
// With -state-dir the service is crash-safe: job lifecycle events are
// journaled ahead of acknowledgment and the cache is checkpointed,
// so a restarted server serves all prior terminal results and reruns
// interrupted jobs deterministically under their original IDs.
//
// Usage:
//
//	impeccable-server [-addr :8080] [-workers N] [-campaign-workers N]
//	                  [-shards N] [-max-cache N] [-state-dir DIR]
//	                  [-snapshot-every D] [-segment-bytes N] [-inline-limit N]
//	                  [-compact-every D] [-max-queued N] [-max-jobs N]
//	                  [-lease-ttl D] [-tenant SPEC ...] [-preempt-after D]
//
// There is one execution path, the lease: -workers=N starts N
// in-process workers ("local/0" … in job listings) that lease,
// heartbeat and complete jobs by function call, exactly as remote
// impeccable-worker processes do over POST
// /api/v1/worker/lease|heartbeat|complete; both drain the same queue.
// -workers=0 starts the server as a pure coordinator: every campaign
// executes on remote workers. A worker that stops heartbeating for
// -lease-ttl loses its job, which re-enters the queue under its
// original ID and reruns byte-identically.
//
// Tenancy: submissions carry a tenant (body field or X-Tenant header;
// absent = "default") and pending work is arbitrated per tenant by
// weighted deficit round-robin, so one tenant's flood cannot starve
// another's trickle. -tenant configures one tenant's limits and
// repeats, e.g.
//
//	impeccable-server -tenant 'acme,weight=3,max-queued=100' \
//	                  -tenant 'guest,weight=1,rate=2,burst=5,max-running=1' \
//	                  -preempt-after 30s
//
// SPEC is name[,weight=N][,max-queued=N][,max-running=N][,rate=F][,burst=N];
// unnamed tenants get weight 1 and the -max-queued bound. -preempt-after
// arms preemption: a queued priority job starved that long may revoke
// an over-share tenant's youngest lease, in-process or remote (the
// revoked job requeues and reruns byte-identically).
//
// Quickstart:
//
//	impeccable-server -state-dir /var/lib/impeccable &
//	curl -X POST localhost:8080/api/v1/campaigns -d \
//	  '{"target":"PLPro","library_size":1000,"train_size":200,"fast_protocols":true}'
//	curl localhost:8080/api/v1/campaigns/job-000001
//	curl localhost:8080/api/v1/campaigns/job-000001/result
//	curl localhost:8080/api/v1/cache
//
// On SIGTERM/SIGINT the server drains gracefully: /healthz flips to
// 503 "draining" (load balancers stop routing), no more leases are
// granted, in-process runs are aborted, a final cache checkpoint lands
// in -state-dir, and only then does the HTTP listener close. A drain
// changes no job's state — the next start re-enqueues queued and
// in-process-held jobs; outstanding remote leases survive into the
// next start too.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"impeccable/internal/service"
)

// tenantFlags accumulates repeated -tenant specs into the service's
// per-tenant limits table.
type tenantFlags map[string]service.TenantLimits

func (tf tenantFlags) String() string {
	names := make([]string, 0, len(tf))
	for name := range tf {
		names = append(names, name)
	}
	return strings.Join(names, ",")
}

// Set parses one name[,weight=N][,max-queued=N][,max-running=N]
// [,rate=F][,burst=N] spec.
func (tf tenantFlags) Set(spec string) error {
	parts := strings.Split(spec, ",")
	name := strings.TrimSpace(parts[0])
	if name == "" {
		return fmt.Errorf("tenant spec %q: empty name", spec)
	}
	var lim service.TenantLimits
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("tenant spec %q: %q is not key=value", spec, kv)
		}
		var err error
		switch key {
		case "weight":
			lim.Weight, err = strconv.Atoi(val)
		case "max-queued":
			lim.MaxQueued, err = strconv.Atoi(val)
		case "max-running":
			lim.MaxRunning, err = strconv.Atoi(val)
		case "rate":
			lim.SubmitPerSec, err = strconv.ParseFloat(val, 64)
		case "burst":
			lim.SubmitBurst, err = strconv.Atoi(val)
		default:
			return fmt.Errorf("tenant spec %q: unknown key %q", spec, key)
		}
		if err != nil {
			return fmt.Errorf("tenant spec %q: bad %s: %v", spec, key, err)
		}
	}
	tf[name] = lim
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", -1, "in-process lease-holding workers, listed as local/<n> (-1 = half of GOMAXPROCS, 0 = remote workers only)")
	campaignWorkers := flag.Int("campaign-workers", 0, "worker pool width inside each campaign (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 64, "cache shard count")
	maxCache := flag.Int("max-cache", 0, "score-cache entry bound (0 = unbounded)")
	stateDir := flag.String("state-dir", "", "durable state directory: job journal + cache checkpoints (empty = in-memory only)")
	snapshotEvery := flag.Duration("snapshot-every", 30*time.Second, "cache checkpoint cadence when -state-dir is set")
	segmentBytes := flag.Int64("segment-bytes", 0, "journal segment rotation threshold in bytes (0 = 4 MiB)")
	inlineLimit := flag.Int("inline-limit", 0, "journal payloads above this many bytes spill to the blob store (0 = 32 KiB, negative = never spill)")
	compactEvery := flag.Duration("compact-every", 0, "journal compaction + blob GC cadence when -state-dir is set (0 = 1m, negative = never)")
	maxQueued := flag.Int("max-queued", 0, "pending-queue bound; overflow submissions get HTTP 429 (0 = unbounded)")
	maxJobs := flag.Int("max-jobs", 0, "terminal job records kept in memory and listings (0 = unbounded; the journal keeps full history)")
	leaseTTL := flag.Duration("lease-ttl", 0, "lease TTL; a worker (in-process or remote) silent this long loses its job (0 = 30s)")
	accessLog := flag.Bool("access-log", false, "log one line per HTTP request (method, path, status, latency, request ID)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (do not enable on untrusted networks)")
	tenants := tenantFlags{}
	flag.Var(tenants, "tenant", "per-tenant limits, repeatable: name[,weight=N][,max-queued=N][,max-running=N][,rate=F][,burst=N]")
	preemptAfter := flag.Duration("preempt-after", 0, "starved priority jobs may revoke an over-share tenant's youngest lease after waiting this long (0 = never preempt)")
	flag.Parse()

	var logf func(string, ...any)
	if *accessLog {
		logf = log.Printf
	}
	svc, err := service.Open(service.Options{
		Workers:         max(*workers, 0),
		RemoteOnly:      *workers == 0,
		CampaignWorkers: *campaignWorkers,
		CacheShards:     *shards,
		MaxCacheEntries: *maxCache,
		StateDir:        *stateDir,
		SnapshotEvery:   *snapshotEvery,
		SegmentBytes:    *segmentBytes,
		InlineLimit:     *inlineLimit,
		CompactEvery:    *compactEvery,
		MaxQueued:       *maxQueued,
		MaxJobRecords:   *maxJobs,
		LeaseTTL:        *leaseTTL,
		Tenants:         tenants,
		PreemptAfter:    *preemptAfter,
		Logf:            logf,
	})
	if err != nil {
		log.Fatalf("opening service: %v", err)
	}
	if *workers == 0 {
		log.Printf("running as pure coordinator: campaigns execute only on remote impeccable-worker processes")
	}

	handler := svc.Handler()
	if *pprofOn {
		// The profiler mounts beside the API, outside its middleware:
		// profile downloads should not skew the request-latency series.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
		log.Printf("pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if *stateDir != "" {
		recovered := len(svc.Jobs())
		log.Printf("impeccable-server listening on %s (targets: %v, state: %s, %d jobs recovered)",
			*addr, svc.Targets(), *stateDir, recovered)
	} else {
		log.Printf("impeccable-server listening on %s (targets: %v)", *addr, svc.Targets())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case s := <-sig:
		log.Printf("received %v, draining (in-process runs abort; their jobs and queued jobs resume on next start)", s)
	}

	// Drain the service first, with the listener still up: /healthz
	// flips to 503 "draining" immediately, so load balancers stop
	// routing here before the socket disappears, and status/result
	// queries keep answering while in-process runs wind down.
	svc.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "http shutdown: %v\n", err)
	}
	if *stateDir != "" {
		log.Printf("drained; state saved under %s", *stateDir)
	}
}
