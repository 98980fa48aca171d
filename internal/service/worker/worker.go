// Package worker is the remote-execution side of the campaign
// service's lease protocol: a pull-based worker that leases jobs from
// a coordinator over HTTP and posts back the result summary plus the
// docking results the run computed fresh. The coordinator merges that
// delta into its sharded score cache, so labels computed on any worker
// warm the whole cluster's future submissions. Feature vectors are
// neither shipped nor kept: ML1 recomputes each from its library ID.
//
// A Worker is a transport, not a second job runner: each leased job
// runs through service.Holder — the same code the coordinator's
// in-process holders use, heartbeat policy included — with the Worker
// answering its Lease, Heartbeat and Complete calls over HTTP and
// supplying the per-worker score cache that persists across jobs.
//
// The shape follows the paper's pilot-job middleware (EnTK/RADICAL
// pilots pull tasks onto allocated nodes rather than having tasks
// pushed at them) and fault-tolerant distributed evaluation harnesses:
// all failure handling lives in the lease. A worker that dies mid-job
// simply stops heartbeating; the coordinator re-enqueues the job under
// its original ID with Seed and LibOffset preserved, so the rerun —
// on any worker — is byte-identical science.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"impeccable/internal/campaign"
	"impeccable/internal/chem"
	"impeccable/internal/dock"
	"impeccable/internal/receptor"
	"impeccable/internal/service"
)

// Options configures a Worker.
type Options struct {
	// Server is the coordinator's base URL, e.g. "http://host:8080".
	Server string
	// ID names this worker in leases and listings; it must be stable
	// for the life of the process (heartbeats authenticate by it).
	// Empty = "<hostname>-<pid>".
	ID string
	// TTL is the lease duration requested from the coordinator; a
	// worker that stops heartbeating for this long loses its job. 0 =
	// the coordinator's default (explicit values are clamped server-side
	// to [1s, 5m]).
	TTL time.Duration
	// Poll is how long to wait between lease attempts when the
	// coordinator has no work; 0 means 500ms.
	Poll time.Duration
	// CampaignWorkers bounds the worker pools inside each campaign
	// (docking, screening, ESMACS); 0 means GOMAXPROCS.
	CampaignWorkers int
	// CacheShards is the lock-stripe width of the per-worker score
	// cache; 0 means 16.
	CacheShards int
	// MaxCacheEntries soft-bounds the per-worker score cache; 0 means
	// unbounded.
	MaxCacheEntries int
	// Targets are the receptors this worker can dock against; nil
	// means receptor.StandardTargets().
	Targets []*receptor.Target
	// HTTPClient overrides the default client (tests).
	HTTPClient *http.Client
	// Logf sinks the worker's log lines; nil = log.Printf.
	Logf func(format string, args ...any)
}

// Worker pulls leased jobs from a coordinator and executes them. Its
// score cache persists across jobs, so repeated library windows on the
// same worker dock for free — the same economics the coordinator's
// shared cache gives in-process holders.
type Worker struct {
	opts   Options
	client *http.Client
	// completeClient carries the complete upload: up to maxScoreDelta
	// docking results, which a slow link cannot move inside the protocol
	// client's short timeout (sized for lease/heartbeat round-trips).
	completeClient *http.Client
	scores         *service.ScoreCache
	logf           func(string, ...any)
	holder         *service.Holder // runs each leased job, with this Worker as its transport

	completed atomic.Int64 // jobs finalized (done, failed or canceled)
}

// New builds a worker; it holds no connections until Run.
func New(opts Options) *Worker {
	if opts.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	shards := opts.CacheShards
	if shards <= 0 {
		shards = 16
	}
	if opts.Targets == nil {
		opts.Targets = receptor.StandardTargets()
	}
	targets := make(map[string]*receptor.Target, len(opts.Targets))
	for _, t := range opts.Targets {
		targets[t.Name] = t
	}
	w := &Worker{
		opts:   opts,
		client: opts.HTTPClient,
		scores: service.NewScoreCache(shards, opts.MaxCacheEntries),
		logf:   opts.Logf,
	}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
		w.completeClient = &http.Client{Timeout: 10 * time.Minute}
	} else {
		// An injected client (tests) is authoritative for every call.
		w.completeClient = w.client
	}
	if w.logf == nil {
		w.logf = log.Printf
	}
	w.holder = &service.Holder{
		Transport:       w,
		Name:            "worker " + opts.ID,
		Targets:         targets,
		CampaignWorkers: opts.CampaignWorkers,
		Scores:          w.scoresFor,
		Logf:            w.logf,
	}
	return w
}

// ID returns the worker's lease identity.
func (w *Worker) ID() string { return w.opts.ID }

// Completed returns how many jobs this worker has finalized.
func (w *Worker) Completed() int64 { return w.completed.Load() }

// ScoreCacheStats snapshots the worker's persistent score cache — the
// worker binary's own /metrics listener reads these at scrape time.
func (w *Worker) ScoreCacheStats() service.CacheStats { return w.scores.Stats() }

// Run leases and executes jobs until ctx is canceled. Lease/poll
// errors are logged and retried — a worker outlives coordinator
// restarts and network blips; correctness lives in the lease protocol,
// not in the worker staying up.
func (w *Worker) Run(ctx context.Context) error {
	for {
		ran, err := w.RunOne(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			w.logf("worker %s: %v", w.opts.ID, err)
		}
		if !ran {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.opts.Poll):
			}
		}
	}
}

// RunOne leases at most one job and executes it to completion,
// reporting whether a job was leased. Exposed for tests and embedders
// that want to control the polling loop themselves.
func (w *Worker) RunOne(ctx context.Context) (bool, error) { return w.holder.RunOne(ctx) }

// Lease asks the coordinator for one job; a nil grant means it has none.
func (w *Worker) Lease(ctx context.Context) (*service.LeaseGrant, error) {
	var grant service.LeaseGrant
	code, err := w.post(ctx, "/api/v1/worker/lease",
		service.LeaseRequest{WorkerID: w.opts.ID, TTLSeconds: w.opts.TTL.Seconds()}, &grant)
	if err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	switch code {
	case http.StatusOK:
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("lease: coordinator answered %d", code)
	}
	w.logf("worker %s: leased %s (target %s, expires %s)",
		w.opts.ID, grant.JobID, grant.Req.Target, grant.ExpiresAt.Format(time.RFC3339))
	return &grant, nil
}

// Heartbeat extends the lease and reports the run's stage and
// progress; a 409 or 404 means the lease is lost.
func (w *Worker) Heartbeat(ctx context.Context, g *service.LeaseGrant, stage string, progress float64) error {
	code, err := w.post(ctx, "/api/v1/worker/heartbeat", service.HeartbeatRequest{
		WorkerID: w.opts.ID, Token: g.Token, JobID: g.JobID, Stage: stage, Progress: progress,
	}, nil)
	switch {
	case err != nil:
		return err
	case code == http.StatusConflict || code == http.StatusNotFound:
		return fmt.Errorf("%w (coordinator answered %d)", service.ErrLeaseLost, code)
	case code != http.StatusOK:
		return fmt.Errorf("heartbeat: coordinator answered %d", code)
	}
	return nil
}

// scoresFor opens one job's view of the persistent score cache. The
// view records every fresh docking result, and finish ships that delta
// with the completion — the coordinator merges it into its sharded
// cache — together with the run's own score-cache traffic, so the
// coordinator's /metrics shows fleet-wide cache effectiveness
// (impeccable_worker_cache_*_total).
func (w *Worker) scoresFor(g *service.LeaseGrant) (dock.ScoreCache, func(*service.WorkerResult)) {
	rec := &recordingScores{inner: w.scores.ForTarget(g.Req.Target), target: g.Req.Target}
	before := w.scores.Stats()
	return rec, func(out *service.WorkerResult) {
		rec.mu.Lock()
		delta, dropped := rec.delta, rec.dropped
		rec.mu.Unlock()
		out.Scores = delta
		if dropped > 0 {
			w.logf("worker %s: %s delta capped (%d score entries not shipped; coordinator cache stays colder)",
				w.opts.ID, g.JobID, dropped)
		}
		out.Stats = &service.WorkerRunStats{ScoreCache: statsDelta(before, w.scores.Stats())}
	}
}

// Complete posts the outcome, retrying briefly over network blips. A
// 409 means the lease was lost and the result must be discarded (the
// rerun owns the job); that is not an error. The full in-memory result
// stays on the worker: the coordinator serves summaries only.
func (w *Worker) Complete(ctx context.Context, g *service.LeaseGrant, res service.WorkerResult, _ *campaign.Result) error {
	req := service.CompleteRequest{WorkerID: w.opts.ID, Token: g.Token, JobID: g.JobID, WorkerResult: res}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(500 * time.Millisecond):
			}
		}
		code, err := w.postVia(ctx, w.completeClient, "/api/v1/worker/complete", req, nil)
		switch {
		case err != nil:
			lastErr = err
		case code == http.StatusOK:
			w.completed.Add(1)
			w.logf("worker %s: completed %s", w.opts.ID, g.JobID)
			return nil
		case code == http.StatusConflict || code == http.StatusNotFound:
			w.logf("worker %s: result for %s discarded (%d: lease lost)", w.opts.ID, g.JobID, code)
			return nil
		default:
			lastErr = fmt.Errorf("coordinator answered %d", code)
		}
	}
	return fmt.Errorf("complete %s: %w", g.JobID, lastErr)
}

// post issues one JSON POST and decodes a 200 response into out (when
// non-nil). Non-200 statuses are returned for the caller to interpret;
// only transport failures are errors.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	return w.postVia(ctx, w.client, path, body, out)
}

func (w *Worker) postVia(ctx context.Context, client *http.Client, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Server+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	// One request ID per call, echoed back by the coordinator and
	// stamped on its access log — a failed lease or complete can be
	// matched to the exact coordinator-side line.
	req.Header.Set("X-Request-Id", fmt.Sprintf("%s-%d", w.opts.ID, time.Now().UnixNano()))
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	// Drain so the connection is reused.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, nil
}

// statsDelta subtracts a before-run cache snapshot from the after-run
// one, yielding this job's own traffic. Entry counts and shard width
// are reported as-is (they are levels, not counters).
func statsDelta(before, after service.CacheStats) service.CacheStats {
	d := service.CacheStats{
		Shards:    after.Shards,
		Entries:   after.Entries,
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Puts:      after.Puts - before.Puts,
		Evictions: after.Evictions - before.Evictions,
	}
	if lookups := d.Hits + d.Misses; lookups > 0 {
		d.HitRate = float64(d.Hits) / float64(lookups)
	}
	return d
}

// maxScoreDelta bounds the score-cache delta shipped per job. Score
// entries are expensive to recompute (each is a docking run), but the
// delta only warms the coordinator's shared cache — the worker keeps
// every entry in its own cache regardless — so dropping the tail costs
// the cluster some warmth, never correctness. The cap keeps the
// worst-case complete payload well under the coordinator's body limit
// (http.maxCompleteBody).
const maxScoreDelta = 50_000

// recordingScores wraps the worker's per-target score-cache view and
// records every fresh docking result the run stores — the score-cache
// delta posted back with the job.
type recordingScores struct {
	inner  dock.ScoreCache
	target string

	mu      sync.Mutex
	delta   []service.ScoreEntry
	dropped int
}

func (r *recordingScores) Get(m *chem.Molecule) (dock.Result, bool) { return r.inner.Get(m) }

func (r *recordingScores) Put(m *chem.Molecule, res dock.Result) {
	r.inner.Put(m, res)
	// Private genome copy: the docking engine may reuse its slice.
	res.Genome = append([]float64(nil), res.Genome...)
	r.mu.Lock()
	if len(r.delta) < maxScoreDelta {
		r.delta = append(r.delta, service.ScoreEntry{Target: r.target, FP: m.FP(), Result: res})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}
