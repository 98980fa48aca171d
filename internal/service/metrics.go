// Service metrics: every counter the coordinator already maintained
// internally — scheduler per-state tallies, lease lifecycle, journal
// fsyncs, cache shard hit rates, per-stage funnel windows — exposed as
// Prometheus text exposition through internal/obs, plus the HTTP
// middleware that measures the API itself (per-route latency, status
// codes, in-flight requests) and threads a request ID through logs and
// journal events.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"time"

	"impeccable/internal/campaign"
	"impeccable/internal/obs"
)

// metrics bundles the service's registry and the event-driven
// instruments. Scrape-time mirrors (queue depth, per-state gauges,
// cache shard counters, Retry-After) are wired as OnCollect hooks in
// Service.registerCollectors, so their cost is paid per scrape, not
// per event.
type metrics struct {
	reg *obs.Registry

	jobsSubmitted *obs.Counter
	jobsTerminal  *obs.CounterVec // state
	jobsByState   *obs.GaugeVec   // state
	queueDepth    *obs.Gauge
	retryAfter    *obs.Gauge

	leaseGrants     *obs.Counter
	leaseHeartbeats *obs.Counter
	leaseExpiries   *obs.Counter
	leaseRequeues   *obs.Counter
	leasesActive    *obs.Gauge

	journalAppends           *obs.Counter
	journalBytes             *obs.Counter
	journalSize              *obs.Gauge
	journalSegments          *obs.Gauge
	journalRotations         *obs.Counter
	journalCompactions       *obs.Counter
	journalCompactionSeconds *obs.Histogram
	journalFsync             *obs.Histogram

	blobObjects *obs.Gauge
	blobBytes   *obs.Gauge
	blobPuts    *obs.Counter
	blobDeletes *obs.Counter

	snapshots       *obs.Counter
	snapshotSeconds *obs.Histogram

	cacheHits      *obs.CounterVec // cache, shard
	cacheMisses    *obs.CounterVec // cache, shard
	cacheEvictions *obs.CounterVec // cache, shard
	cacheEntries   *obs.GaugeVec   // cache, shard
	cachePuts      *obs.CounterVec // cache

	workerCacheHits      *obs.CounterVec // cache (fleet-reported)
	workerCacheMisses    *obs.CounterVec // cache
	workerCacheEvictions *obs.CounterVec // cache

	funnelStageSeconds *obs.CounterVec // stage
	funnelWallSeconds  *obs.Counter
	funnelRuns         *obs.Counter

	tenantQueueDepth    *obs.GaugeVec   // tenant
	tenantAdmissions    *obs.CounterVec // tenant
	tenantRejections    *obs.CounterVec // tenant, reason
	tenantPreemptions   *obs.CounterVec // tenant (the victim)
	tenantFunnelSeconds *obs.CounterVec // tenant

	httpRequests *obs.CounterVec   // route, method, code
	httpLatency  *obs.HistogramVec // route
	httpInFlight *obs.Gauge

	eventsPublished *obs.Counter
	sseSubscribers  *obs.Gauge
}

// newMetrics registers every event-driven instrument on a fresh
// registry.
func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	m.jobsSubmitted = reg.Counter("impeccable_jobs_submitted_total",
		"Campaign submissions accepted into the queue.")
	m.jobsTerminal = reg.CounterVec("impeccable_jobs_terminal_total",
		"Jobs that reached a terminal state, by state.", "state")
	m.jobsByState = reg.GaugeVec("impeccable_jobs",
		"Jobs currently in the table, by state.", "state")
	m.queueDepth = reg.Gauge("impeccable_queue_depth",
		"Jobs waiting in the pending queue.")
	m.retryAfter = reg.Gauge("impeccable_retry_after_seconds",
		"Backpressure estimate served with 429 responses: backlog times recent mean job duration over execution slots.")

	m.leaseGrants = reg.Counter("impeccable_lease_grants_total",
		"Jobs handed to workers (in-process or remote) under a TTL lease.")
	m.leaseHeartbeats = reg.Counter("impeccable_lease_heartbeats_total",
		"Accepted lease heartbeats.")
	m.leaseExpiries = reg.Counter("impeccable_lease_expiries_total",
		"Leases revoked because the worker stopped heartbeating.")
	m.leaseRequeues = reg.Counter("impeccable_lease_requeues_total",
		"Leased jobs re-entered into the queue (expiry or unacknowledged grant).")
	m.leasesActive = reg.Gauge("impeccable_leases_active",
		"Jobs currently out on a lease.")

	m.journalAppends = reg.Counter("impeccable_journal_appends_total",
		"Events appended to the write-ahead journal.")
	m.journalBytes = reg.Counter("impeccable_journal_append_bytes_total",
		"Bytes appended to the write-ahead journal.")
	m.journalSize = reg.Gauge("impeccable_journal_size_bytes",
		"Current size of the active journal segment.")
	m.journalSegments = reg.Gauge("impeccable_journal_segments",
		"Journal segment files on disk (sealed plus active).")
	m.journalRotations = reg.Counter("impeccable_journal_rotations_total",
		"Journal segment rotations (active segment sealed at SegmentBytes).")
	m.journalCompactions = reg.Counter("impeccable_journal_compactions_total",
		"Compactions that rewrote sealed segments into a checkpoint segment.")
	m.journalCompactionSeconds = reg.Histogram("impeccable_journal_compaction_seconds",
		"Wall-clock duration of journal compactions.", nil)
	m.journalFsync = reg.Histogram("impeccable_journal_fsync_seconds",
		"Latency of journal fsyncs (one per append batch).", nil)

	m.blobObjects = reg.Gauge("impeccable_blob_store_objects",
		"Objects in the content-addressed artifact store.")
	m.blobBytes = reg.Gauge("impeccable_blob_store_bytes",
		"Bytes stored in the content-addressed artifact store.")
	m.blobPuts = reg.Counter("impeccable_blob_store_puts_total",
		"Objects written to the artifact store (dedup hits excluded).")
	m.blobDeletes = reg.Counter("impeccable_blob_store_deletes_total",
		"Objects removed from the artifact store (explicit deletes and GC sweeps).")

	m.snapshots = reg.Counter("impeccable_snapshots_total",
		"Cache checkpoints written.")
	m.snapshotSeconds = reg.Histogram("impeccable_snapshot_seconds",
		"Wall-clock duration of cache checkpoint writes.", nil)

	m.cacheHits = reg.CounterVec("impeccable_cache_hits_total",
		"Cache lookups served from memory, by cache and shard.", "cache", "shard")
	m.cacheMisses = reg.CounterVec("impeccable_cache_misses_total",
		"Cache lookups that missed, by cache and shard.", "cache", "shard")
	m.cacheEvictions = reg.CounterVec("impeccable_cache_evictions_total",
		"Entries evicted at the capacity bound, by cache and shard.", "cache", "shard")
	m.cacheEntries = reg.GaugeVec("impeccable_cache_entries",
		"Entries currently cached, by cache and shard.", "cache", "shard")
	m.cachePuts = reg.CounterVec("impeccable_cache_puts_total",
		"Entries stored, by cache.", "cache")

	m.workerCacheHits = reg.CounterVec("impeccable_worker_cache_hits_total",
		"Cache hits reported by remote workers with completed jobs, by cache.", "cache")
	m.workerCacheMisses = reg.CounterVec("impeccable_worker_cache_misses_total",
		"Cache misses reported by remote workers with completed jobs, by cache.", "cache")
	m.workerCacheEvictions = reg.CounterVec("impeccable_worker_cache_evictions_total",
		"Cache evictions reported by remote workers with completed jobs, by cache.", "cache")

	m.funnelStageSeconds = reg.CounterVec("impeccable_funnel_stage_seconds_total",
		"Wall-clock seconds spent per funnel stage across completed campaigns (local and remote).", "stage")
	m.funnelWallSeconds = reg.Counter("impeccable_funnel_wall_seconds_total",
		"Total campaign wall-clock seconds across completed campaigns.")
	m.funnelRuns = reg.Counter("impeccable_funnel_runs_total",
		"Campaigns whose funnel timings have been aggregated.")

	m.tenantQueueDepth = reg.GaugeVec("impeccable_tenant_queue_depth",
		"Jobs waiting in each tenant's pending queue.", "tenant")
	m.tenantAdmissions = reg.CounterVec("impeccable_tenant_admissions_total",
		"Submissions accepted into the queue, by tenant.", "tenant")
	m.tenantRejections = reg.CounterVec("impeccable_tenant_rejections_total",
		"Submissions rejected with 429, by tenant and reason (queue_full, rate_limited).", "tenant", "reason")
	m.tenantPreemptions = reg.CounterVec("impeccable_tenant_preemptions_total",
		"Leased jobs revoked by the preemption arbiter, by victim tenant.", "tenant")
	m.tenantFunnelSeconds = reg.CounterVec("impeccable_tenant_funnel_seconds_total",
		"Campaign wall-clock seconds consumed per tenant across completed campaigns.", "tenant")

	m.httpRequests = reg.CounterVec("impeccable_http_requests_total",
		"HTTP requests served, by route pattern, method and status code.", "route", "method", "code")
	m.httpLatency = reg.HistogramVec("impeccable_http_request_seconds",
		"HTTP request latency by route pattern.", nil, "route")
	m.httpInFlight = reg.Gauge("impeccable_http_in_flight",
		"HTTP requests currently being served.")

	m.eventsPublished = reg.Counter("impeccable_events_published_total",
		"Job lifecycle events published on the event bus.")
	m.sseSubscribers = reg.Gauge("impeccable_sse_subscribers",
		"Live SSE subscriptions on campaign event streams.")

	return m
}

// Rejection reasons for the tenant rejection counter.
const (
	rejectQueueFull   = "queue_full"
	rejectRateLimited = "rate_limited"
)

// observeFunnel folds one completed campaign's stage windows into the
// cluster-wide per-stage seconds — the coordinator's own runs and
// remote workers' runs land in the same families — and charges the
// wall-clock to the owning tenant's series.
func (m *metrics) observeFunnel(tenant string, timings []campaign.StageTiming, wallSeconds float64) {
	if len(timings) == 0 && wallSeconds == 0 {
		return
	}
	for _, t := range timings {
		m.funnelStageSeconds.With(t.Stage).Add(t.Seconds)
	}
	m.funnelWallSeconds.Add(wallSeconds)
	m.funnelRuns.Inc()
	m.tenantFunnelSeconds.With(normalizeTenant(tenant)).Add(wallSeconds)
}

// addWorkerCacheStats folds the cache-stat deltas a remote worker
// reported with a completed job into the fleet-wide counters.
func (m *metrics) addWorkerCacheStats(st *WorkerRunStats) {
	if st == nil {
		return
	}
	m.workerCacheHits.With("score").Add(float64(st.ScoreCache.Hits))
	m.workerCacheMisses.With("score").Add(float64(st.ScoreCache.Misses))
	m.workerCacheEvictions.With("score").Add(float64(st.ScoreCache.Evictions))
}

// registerCollectors wires the scrape-time mirrors: scheduler state,
// cache shard counters and the Retry-After estimate are read when
// /metrics is scraped, so their sources stay free of metric plumbing.
func (s *Service) registerCollectors() {
	m := s.met
	m.reg.GaugeFunc("impeccable_uptime_seconds",
		"Seconds since the service started.",
		func() float64 { return time.Since(s.started).Seconds() })
	m.reg.OnCollect(func() {
		counts := s.sched.counts()
		for _, st := range countedStates {
			m.jobsByState.With(string(st)).Set(float64(counts[st]))
		}
		m.queueDepth.Set(float64(s.sched.queueDepth()))
		for tenant, depth := range s.sched.tenantQueueDepths() {
			m.tenantQueueDepth.With(tenant).Set(float64(depth))
		}
		m.leasesActive.Set(float64(s.sched.activeLeases()))
		m.retryAfter.Set(float64(s.sched.retryAfterSeconds()))
		mirrorCache(m, "score", s.scores.ShardStats())
		m.cachePuts.With("score").Set(float64(s.scores.Stats().Puts))
		if s.jl != nil {
			m.journalSize.Set(float64(s.jl.sizeBytes()))
			m.journalSegments.Set(float64(s.jl.segmentCount()))
		}
		if s.blobs != nil {
			st := s.blobs.Stats()
			m.blobObjects.Set(float64(st.Objects))
			m.blobBytes.Set(float64(st.Bytes))
			m.blobPuts.Set(float64(st.Puts))
			m.blobDeletes.Set(float64(st.Deletes))
		}
	})
}

// mirrorCache refreshes one cache's per-shard series from its shard
// counters. Counter.Set ignores regressions, so the mirrored series
// stay monotone even across racy reads.
func mirrorCache(m *metrics, cache string, shards []ShardStats) {
	for i, ss := range shards {
		sh := strconv.Itoa(i)
		m.cacheHits.With(cache, sh).Set(float64(ss.Hits))
		m.cacheMisses.With(cache, sh).Set(float64(ss.Misses))
		m.cacheEvictions.With(cache, sh).Set(float64(ss.Evictions))
		m.cacheEntries.With(cache, sh).Set(float64(ss.Entries))
	}
}

// Metrics exposes the service's registry for embedders that mount the
// exposition elsewhere or add their own instruments.
func (s *Service) Metrics() *obs.Registry { return s.met.reg }

// handleMetrics serves GET /metrics in the Prometheus text format.
// no-store: a scrape is a point-in-time read; a cached one is a lie.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	_, _ = s.met.reg.WriteTo(w)
}

// ---- request tracing ----

// ridKey is the context key carrying the request ID.
type ridKey struct{}

// RequestIDFrom returns the request ID attached by the middleware, or
// "" outside an instrumented request.
func RequestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// requestIDHeader is the trace header accepted and echoed by the API.
const requestIDHeader = "X-Request-Id"

// newRequestID mints a 16-hex-char random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts a caller-supplied X-Request-Id when it is
// short and printable ASCII — anything else is replaced, not trusted
// into logs and the journal.
func sanitizeRequestID(rid string) string {
	if rid == "" || len(rid) > 64 {
		return ""
	}
	for i := 0; i < len(rid); i++ {
		if rid[i] <= 0x20 || rid[i] >= 0x7f {
			return ""
		}
	}
	return rid
}

// knownRoutes are the route patterns tracked individually by the HTTP
// metrics; anything else (404 noise, scanners) aggregates under
// "other" so unbounded request paths cannot mint unbounded series.
var knownRoutes = map[string]bool{
	"/api/v1/campaigns":                 true,
	"/api/v1/campaigns/{id}":            true,
	"/api/v1/campaigns/{id}/result":     true,
	"/api/v1/campaigns/{id}/events":     true,
	"/api/v1/campaigns/{id}/provenance": true,
	"/api/v1/cache":                     true,
	"/api/v1/worker/lease":              true,
	"/api/v1/worker/heartbeat":          true,
	"/api/v1/worker/complete":           true,
	"/healthz":                          true,
	"/metrics":                          true,
}

// routeLabel normalizes a request path to its route pattern.
func routeLabel(path string) string {
	const prefix = "/api/v1/campaigns/"
	if strings.HasPrefix(path, prefix) && len(path) > len(prefix) {
		rest := path[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			path = prefix + "{id}" + rest[i:]
		} else {
			path = prefix + "{id}"
		}
	}
	if knownRoutes[path] {
		return path
	}
	return "other"
}

// statusWriter captures the response code for metrics and logs while
// passing streaming capabilities (Flush for SSE) through.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so SSE streaming works
// through the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the API mux with the observability middleware:
// request-ID accept/generate/echo, per-route latency + status-code
// metrics, the in-flight gauge, and (when Options.Logf is set) one
// access-log line per request carrying the request ID.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := sanitizeRequestID(r.Header.Get(requestIDHeader))
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set(requestIDHeader, rid)
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))

		route := routeLabel(r.URL.Path)
		sw := &statusWriter{ResponseWriter: w}
		s.met.httpInFlight.Inc()
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		s.met.httpInFlight.Dec()
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		s.met.httpRequests.With(route, r.Method, strconv.Itoa(sw.code)).Inc()
		s.met.httpLatency.With(route).Observe(dur.Seconds())
		if s.logf != nil {
			s.logf("http %s %s %d %s rid=%s", r.Method, r.URL.Path, sw.code,
				dur.Round(time.Microsecond), rid)
		}
	})
}
