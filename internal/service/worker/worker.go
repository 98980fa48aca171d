// Package worker is the remote-execution side of the campaign
// service's lease protocol: a pull-based worker that leases jobs from
// a coordinator over HTTP, runs each campaign locally against
// per-worker score/feature caches, heartbeats while it runs, and posts
// back the result summary plus the docking results the run computed
// fresh. The coordinator merges that delta into its sharded score
// cache, so labels computed on any worker warm the whole cluster's
// future submissions; feature vectors stay in the worker's own cache
// (recomputing one from its ID is cheaper than shipping it).
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
	"errors"
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
	// CacheShards is the lock-stripe width of the per-worker caches; 0
	// means 16.
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
// score and feature caches persist across jobs, so repeated library
// windows on the same worker dock for free — the same economics the
// coordinator's shared caches give in-process workers.
type Worker struct {
	opts    Options
	client  *http.Client
	targets map[string]*receptor.Target
	// completeClient carries the complete upload: up to maxScoreDelta
	// docking results, which a slow link cannot move inside the protocol
	// client's short timeout (sized for lease/heartbeat round-trips).
	completeClient *http.Client
	scores         *service.ScoreCache
	features       *service.FeatureCache
	logf           func(string, ...any)

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
	targets := opts.Targets
	if targets == nil {
		targets = receptor.StandardTargets()
	}
	w := &Worker{
		opts:     opts,
		client:   opts.HTTPClient,
		targets:  make(map[string]*receptor.Target, len(targets)),
		scores:   service.NewScoreCache(shards, opts.MaxCacheEntries),
		features: service.NewFeatureCache(shards, opts.MaxCacheEntries),
		logf:     opts.Logf,
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
	for _, t := range targets {
		w.targets[t.Name] = t
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

// FeatureCacheStats snapshots the worker's persistent feature cache.
func (w *Worker) FeatureCacheStats() service.CacheStats { return w.features.Stats() }

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
func (w *Worker) RunOne(ctx context.Context) (bool, error) {
	var grant service.LeaseGrant
	code, err := w.post(ctx, "/api/v1/worker/lease",
		service.LeaseRequest{WorkerID: w.opts.ID, TTLSeconds: w.opts.TTL.Seconds()}, &grant)
	if err != nil {
		return false, fmt.Errorf("lease: %w", err)
	}
	switch code {
	case http.StatusOK:
	case http.StatusNoContent:
		return false, nil
	default:
		return false, fmt.Errorf("lease: coordinator answered %d", code)
	}
	w.logf("worker %s: leased %s (target %s, expires %s)",
		w.opts.ID, grant.JobID, grant.Req.Target, grant.ExpiresAt.Format(time.RFC3339))
	return true, w.execute(ctx, &grant)
}

// execute runs one leased campaign with heartbeats and posts the
// outcome. A run whose lease is lost (expiry, cancel, coordinator
// restart that re-assigned it) is abandoned without posting — the
// coordinator owns the job again and the rerun is deterministic.
func (w *Worker) execute(ctx context.Context, g *service.LeaseGrant) error {
	t, ok := w.targets[g.Req.Target]
	if !ok {
		// Fail the job loudly rather than abandoning the lease: a pool
		// where no worker serves the target would otherwise bounce the
		// job between lease expiries forever, invisibly. Deploy workers
		// with Options.Targets matching the coordinator's.
		return w.postComplete(ctx, g, service.WorkerResult{
			Error: fmt.Sprintf("worker %s: unknown target %q", w.opts.ID, g.Req.Target),
		})
	}
	cfg := service.BaseConfig(g.Req, t)
	cfg.Workers = w.opts.CampaignWorkers
	scores := &recordingScores{inner: w.scores.ForTarget(t.Name), target: t.Name}
	cfg.DockCache = scores
	cfg.Features = w.features

	cancel := make(chan struct{})
	var abandoned atomic.Bool
	var once sync.Once
	abort := func() { abandoned.Store(true); once.Do(func() { close(cancel) }) }
	cfg.Cancel = cancel
	var prog progressState
	cfg.Progress = prog.set

	// Snapshot the persistent caches before the run: the difference
	// afterwards is this job's contribution, reported with the
	// completion so the coordinator's /metrics shows fleet-wide cache
	// effectiveness (impeccable_worker_cache_*_total).
	scoresBefore, featuresBefore := w.scores.Stats(), w.features.Stats()
	runStart := time.Now()

	runDone := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(ctx, g, &prog, runDone, abort)
	}()

	res, err := func() (res *campaign.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("worker: campaign panicked: %v", r)
			}
		}()
		return campaign.RunWithPool(cfg, nil, g.Req.LibOffset)
	}()
	close(runDone)
	<-hbDone

	if abandoned.Load() || ctx.Err() != nil {
		w.logf("worker %s: abandoned %s (lease lost or shutting down)", w.opts.ID, g.JobID)
		return nil
	}
	out := service.WorkerResult{Scores: scores.take()}
	if n := scores.droppedN(); n > 0 {
		w.logf("worker %s: %s delta capped (%d score entries not shipped; coordinator cache stays colder)",
			w.opts.ID, g.JobID, n)
	}
	out.Stats = &service.WorkerRunStats{
		ScoreCache:   statsDelta(scoresBefore, w.scores.Stats()),
		FeatureCache: statsDelta(featuresBefore, w.features.Stats()),
		WallSeconds:  time.Since(runStart).Seconds(),
	}
	switch {
	case errors.Is(err, campaign.ErrCanceled):
		out.Canceled = true
	case err != nil:
		out.Error = err.Error()
	default:
		out.Summary = &service.ResultSummary{
			Funnel:          res.Funnel,
			Top:             res.Top,
			ScientificYield: res.ScientificYield,
		}
		out.Stats.Timings = res.Funnel.Timings
		out.Stats.WallSeconds = res.Funnel.WallSeconds
	}
	return w.postComplete(ctx, g, out)
}

// heartbeatLoop extends the lease at TTL/3 cadence, reporting the
// remotely observed stage/progress, until the run finishes. It aborts
// the run when the coordinator says the lease is lost, or when
// heartbeats have failed for longer than the TTL (the lease has
// certainly expired by then, so the job is no longer this worker's).
func (w *Worker) heartbeatLoop(ctx context.Context, g *service.LeaseGrant, prog *progressState, runDone <-chan struct{}, abort func()) {
	ttl := time.Duration(g.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	interval := ttl / 3
	if interval < 20*time.Millisecond {
		interval = 20 * time.Millisecond
	}
	if interval > 10*time.Second {
		interval = 10 * time.Second
	}
	deadline := time.Now().Add(ttl)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-runDone:
			return
		case <-ctx.Done():
			abort()
			return
		case <-tick.C:
			stage, frac := prog.get()
			code, err := w.post(ctx, "/api/v1/worker/heartbeat", service.HeartbeatRequest{
				WorkerID: w.opts.ID, Token: g.Token, JobID: g.JobID, Stage: stage, Progress: frac,
			}, nil)
			switch {
			case err == nil && code == http.StatusOK:
				deadline = time.Now().Add(ttl)
			case code == http.StatusConflict || code == http.StatusNotFound:
				w.logf("worker %s: lease on %s lost (%d), aborting run", w.opts.ID, g.JobID, code)
				abort()
				return
			default:
				if time.Now().After(deadline) {
					w.logf("worker %s: no heartbeat through a full TTL on %s, aborting run", w.opts.ID, g.JobID)
					abort()
					return
				}
			}
		}
	}
}

// postComplete posts the outcome, retrying briefly over network blips.
// A 409 means the lease was lost and the result must be discarded (the
// rerun owns the job); that is not an error.
func (w *Worker) postComplete(ctx context.Context, g *service.LeaseGrant, res service.WorkerResult) error {
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

// progressState is the campaign's latest stage/progress, written by
// (possibly concurrent) Progress callbacks and read by heartbeats.
type progressState struct {
	mu    sync.Mutex
	stage string
	frac  float64
}

func (p *progressState) set(stage string, frac float64) {
	p.mu.Lock()
	p.stage = stage
	if frac > p.frac {
		p.frac = frac
	}
	p.mu.Unlock()
}

func (p *progressState) get() (string, float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stage, p.frac
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

func (r *recordingScores) take() []service.ScoreEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.delta
	r.delta = nil
	return d
}

func (r *recordingScores) droppedN() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
