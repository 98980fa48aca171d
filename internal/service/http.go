package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Handler returns the service's HTTP API:
//
//	POST   /api/v1/campaigns          submit a campaign (SubmitRequest JSON; X-Tenant
//	                                  header names the tenant when the body doesn't)
//	GET    /api/v1/campaigns          list job snapshots (?state= ?tenant= ?limit= ?after=)
//	GET    /api/v1/campaigns/{id}     one job's status
//	DELETE /api/v1/campaigns/{id}     cancel a job
//	GET    /api/v1/campaigns/{id}/result   completed job's summary
//	GET    /api/v1/campaigns/{id}/events   live progress stream (SSE)
//	GET    /api/v1/campaigns/{id}/provenance   event-hash chain + Merkle proof
//	GET    /api/v1/cache              score cache stats
//	GET    /healthz                   liveness + job counts (503 while draining)
//	GET    /metrics                   Prometheus text exposition
//
// plus the remote-worker protocol (cmd/impeccable-worker):
//
//	POST   /api/v1/worker/lease       pull a job under a TTL lease (204 = no work)
//	POST   /api/v1/worker/heartbeat   extend a lease, report stage/progress
//	POST   /api/v1/worker/complete    post a result + cache deltas
//
// Every route passes through the observability middleware: request IDs
// are accepted (or minted) and echoed as X-Request-Id, and per-route
// latency, status codes and in-flight counts feed /metrics.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /api/v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/provenance", s.handleProvenance)
	mux.HandleFunc("GET /api/v1/cache", s.handleCache)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/v1/worker/lease", s.handleWorkerLease)
	mux.HandleFunc("POST /api/v1/worker/heartbeat", s.handleWorkerHeartbeat)
	mux.HandleFunc("POST /api/v1/worker/complete", s.handleWorkerComplete)
	return s.instrument(mux)
}

// writeJSON encodes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

// maxSubmitBody bounds the request body; a SubmitRequest is tiny.
const maxSubmitBody = 1 << 16

// tenantHeader is the identity fallback for clients that set a header
// instead of the body field (proxies and gateways commonly inject it).
// The body field wins when both are present.
const tenantHeader = "X-Tenant"

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, maxSubmitBody, strictFields, &req) {
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get(tenantHeader)
	}
	id, err := s.SubmitCtx(r.Context(), req)
	if err != nil {
		// A full tenant queue is backpressure, not a bad request: 429
		// tells the tenant to retry later, with the wait derived from
		// how fast its own backlog is draining against its fair share.
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After",
				strconv.Itoa(s.sched.retryAfterSecondsFor(normalizeTenant(req.Tenant))))
			writeError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		// A drained token bucket is the tenant's own submit rate, not
		// queue pressure: the wait comes from the bucket's refill rate.
		var rl *RateLimitError
		if errors.As(err, &rl) {
			secs := int((rl.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		// Submissions during a drain get the same 503 the health probe
		// shows — this instance is going away, try another.
		if errors.Is(err, ErrShuttingDown) {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	snap, _ := s.Status(id)
	writeJSON(w, http.StatusAccepted, snap)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	var q JobQuery
	if v := r.URL.Query().Get("state"); v != "" {
		st := JobState(v)
		switch st {
		case StateQueued, StateLeased, StateRunning, StateDone, StateFailed, StateCanceled:
			q.State = st
		default:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown state %q", v))
			return
		}
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid limit %q", v))
			return
		}
		q.Limit = n
	}
	if v := r.URL.Query().Get("tenant"); v != "" {
		if err := validateTenant(v); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		q.Tenant = v
	}
	q.After = r.URL.Query().Get("after")
	writeJSON(w, http.StatusOK, s.JobsFiltered(q))
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	// The snapshot comes back from the cancel itself (taken under the
	// job's lock): re-reading through the record table here could race
	// a concurrent completion's prune and misreport the outcome.
	snap, err := s.sched.cancelJob(r.PathValue("id"), RequestIDFrom(r.Context()))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job")
	case errors.Is(err, ErrShuttingDown):
		// The journal is closed: a cancel acked now would be lost
		// across the restart. 503 tells the tenant to retry against
		// the next instance.
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusOK, snap)
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	sum, err := s.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job")
	case errors.Is(err, ErrNotFinished):
		// 409: the resource exists but is not ready; poll status first.
		writeError(w, http.StatusConflict, err.Error())
	case err != nil:
		writeError(w, http.StatusGone, err.Error())
	default:
		writeJSON(w, http.StatusOK, sum)
	}
}

// handleProvenance serves a job's event-hash chain, the Merkle root
// sealed at terminal time, and an inclusion proof for one event —
// the last by default, or the one picked with ?event=N.
func (s *Service) handleProvenance(w http.ResponseWriter, r *http.Request) {
	index := -1
	if v := r.URL.Query().Get("event"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid event index %q", v))
			return
		}
		index = n
	}
	p, err := s.Provenance(r.PathValue("id"), index)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job")
	case errors.Is(err, ErrNoProvenance):
		writeError(w, http.StatusNotFound, err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusOK, p)
	}
}

// sseKeepalive is how often an idle event stream emits a comment line
// so intermediaries (and the client) can tell the connection is alive.
const sseKeepalive = 15 * time.Second

// handleEvents streams one job's lifecycle as Server-Sent Events:
// every state transition, stage/progress update and the terminal
// summary. Each event's SSE id is its per-job sequence number, so a
// reconnecting client sends Last-Event-ID and replays only what it
// missed (served from the in-memory ring). The stream closes itself
// after the terminal event — including for already-finished jobs,
// which get their replay and an immediate end-of-stream.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.sched.get(id); !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			after = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sub := s.sched.bus.subscribe(id, after)
	defer s.sched.bus.unsubscribe(id, sub)
	keep := time.NewTicker(sseKeepalive)
	defer keep.Stop()
	for {
		evs, over := s.sched.bus.next(id, sub)
		for _, ev := range evs {
			if !writeSSE(w, ev) {
				return
			}
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if over {
			return
		}
		select {
		case <-sub.notify:
		case <-r.Context().Done():
			return
		case <-keep.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE renders one event in SSE framing; false means the client is
// gone.
func writeSSE(w http.ResponseWriter, ev JobEvent) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err == nil
}

// cacheStatsBody is the /api/v1/cache response.
type cacheStatsBody struct {
	Scores CacheStats `json:"scores"`
}

func (s *Service) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, cacheStatsBody{Scores: s.ScoreCacheStats()})
}

// healthBody is the /healthz response.
type healthBody struct {
	Status        string           `json:"status"`
	Uptime        string           `json:"uptime"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Jobs          map[JobState]int `json:"jobs"`
	Targets       []string         `json:"targets"`
	// RetryAfterSeconds is the same backpressure estimate served with
	// 429 responses: backlog × recent mean job duration over execution
	// slots. Probes can watch it climb before the queue actually fills.
	RetryAfterSeconds int `json:"retry_after_seconds"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	// A draining coordinator must stop attracting traffic: load
	// balancers route on the health probe, so "ok" during a drain keeps
	// sending work to a server that rejects it. And like /metrics, a
	// probe is a point-in-time read — never cacheable.
	w.Header().Set("Cache-Control", "no-store")
	status, code := "ok", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	up := s.Uptime()
	writeJSON(w, code, healthBody{
		Status:            status,
		Uptime:            up.Round(time.Millisecond).String(),
		UptimeSeconds:     up.Seconds(),
		Jobs:              s.sched.counts(),
		Targets:           s.Targets(),
		RetryAfterSeconds: s.sched.retryAfterSeconds(),
	})
}

// maxCompleteBody bounds a worker's complete payload: a ResultSummary
// plus the run's score-cache delta. Workers cap the delta at 50k
// entries (~40 MB of JSON at the largest genome shapes), so the bound
// leaves headroom above the worst legitimate payload — older workers
// also shipped as many feature vectors — rather than rejecting a
// finished multi-minute run.
const maxCompleteBody = 128 << 20

// Field strictness for decodeBody. Tenant-facing submissions reject
// unknown fields (catching typos in hand-written curl bodies); the
// worker protocol tolerates them so coordinator and worker binaries
// can skew by a version.
const (
	strictFields = true
	looseFields  = false
)

// decodeBody decodes a bounded JSON request body, writing the
// appropriate error response (413 for oversize, 400 for syntax) and
// returning false on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, strict bool, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if strict {
		dec.DisallowUnknownFields()
	}
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
	return false
}

// LeaseRequest is a worker's pull for one job. Exported so the worker
// client (internal/service/worker) marshals the exact struct this
// handler decodes — one definition, no drift between the two binaries.
type LeaseRequest struct {
	WorkerID   string  `json:"worker_id"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"` // 0 = server default
}

func (s *Service) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, maxSubmitBody, looseFields, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, "worker_id is required")
		return
	}
	if strings.HasPrefix(req.WorkerID, localWorkerPrefix) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("worker_id prefix %q is reserved for in-process workers", localWorkerPrefix))
		return
	}
	grant, err := s.Lease(req.WorkerID, time.Duration(req.TTLSeconds*float64(time.Second)))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if grant == nil {
		// No runnable work (empty queue, or the coordinator is
		// draining): the worker polls again later.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

// HeartbeatRequest extends a lease and reports remote progress
// (shared with the worker client, like LeaseRequest). Token is the
// secret from the LeaseGrant — worker IDs appear in job listings, so
// the ID alone does not authenticate.
type HeartbeatRequest struct {
	WorkerID string  `json:"worker_id"`
	Token    string  `json:"token"`
	JobID    string  `json:"job_id"`
	Stage    string  `json:"stage,omitempty"`
	Progress float64 `json:"progress,omitempty"`
}

// heartbeatResponse carries the extended lease deadline.
type heartbeatResponse struct {
	ExpiresAt time.Time `json:"expires_at"`
}

func (s *Service) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, maxSubmitBody, looseFields, &req) {
		return
	}
	expires, err := s.Heartbeat(req.WorkerID, req.Token, req.JobID, req.Stage, req.Progress)
	if !writeWorkerError(w, err) {
		return
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{ExpiresAt: expires})
}

// CompleteRequest is a worker's posted outcome for a leased job
// (shared with the worker client, like LeaseRequest). Token
// authenticates as in HeartbeatRequest.
type CompleteRequest struct {
	WorkerID string `json:"worker_id"`
	Token    string `json:"token"`
	JobID    string `json:"job_id"`
	WorkerResult
}

func (s *Service) handleWorkerComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, maxCompleteBody, looseFields, &req) {
		return
	}
	if !writeWorkerError(w, s.Complete(req.WorkerID, req.Token, req.JobID, req.WorkerResult)) {
		return
	}
	snap, ok := s.Status(req.JobID)
	if !ok {
		// The completion can prune this very record (MaxJobRecords);
		// reconstruct the state the accepted outcome implies.
		snap = JobSnapshot{ID: req.JobID, State: StateDone, Worker: req.WorkerID}
		switch {
		case req.Canceled:
			snap.State = StateCanceled
		case req.Error != "":
			snap.State = StateFailed
		}
	}
	writeJSON(w, http.StatusOK, snap)
}

// writeWorkerError maps lease-protocol errors onto status codes (404
// unknown job, 409 lease lost, 400 otherwise) and reports whether the
// request may proceed.
func writeWorkerError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job")
	case errors.Is(err, ErrLeaseLost):
		// 409: the worker's claim conflicts with the coordinator's
		// state — abandon the run and lease something else.
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrShuttingDown):
		// 503: this coordinator is going away; the restarted one owns
		// the job. Distinct from 400 so the worker knows to retry
		// later rather than treat its payload as malformed.
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
	return false
}
