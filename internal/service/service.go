package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"impeccable/internal/blob"
	"impeccable/internal/campaign"
	"impeccable/internal/dock"
	"impeccable/internal/receptor"
)

// Options configures a Service.
type Options struct {
	// Workers bounds how many campaigns run concurrently in this
	// process: each is an in-process lease holder making the same
	// Lease/Heartbeat/Complete calls as a remote worker. 0 means half of
	// GOMAXPROCS (each campaign parallelizes internally too).
	Workers int
	// CampaignWorkers bounds the intra-campaign worker pools (docking,
	// screening, ESMACS); 0 means GOMAXPROCS.
	CampaignWorkers int
	// CacheShards is the lock-stripe width of the shared score cache;
	// 0 means 64.
	CacheShards int
	// MaxCacheEntries soft-bounds the score cache; 0 means unbounded.
	MaxCacheEntries int
	// MaxRetainedResults bounds how many completed jobs keep their full
	// in-memory campaign result (trajectories included); older jobs
	// retain only the small summary. 0 means 64; negative = unbounded.
	MaxRetainedResults int
	// Targets are the receptors the service accepts campaigns against;
	// nil means receptor.StandardTargets().
	Targets []*receptor.Target
	// StateDir, when non-empty, makes the service crash-safe: job
	// lifecycle events are written ahead to segmented
	// <StateDir>/journal-<seq>.jsonl files (fsynced per batch), large
	// payloads spill to the content-addressed <StateDir>/blobs store,
	// and the score cache is checkpointed in delta chunks named by the
	// <StateDir>/caches.snap manifest. Open replays the journal:
	// terminal jobs are served from their persisted summaries, and jobs
	// that were queued or held by an in-process worker at crash time are
	// re-enqueued under their original IDs (Seed and LibOffset
	// preserved, so reruns are deterministic and warm-cache-identical).
	// Empty = in-memory only.
	StateDir string
	// SnapshotEvery is the cadence of the periodic cache checkpoint
	// when StateDir is set; 0 means 30s. The checkpoint writer is also
	// woken, off the ack path, by a completion that brought new docking
	// results, and Shutdown ends with one synchronous checkpoint. Each
	// checkpoint writes only the entries stored since the last; a crash
	// loses at most that tail, which costs re-docking, never different
	// science.
	SnapshotEvery time.Duration
	// SegmentBytes is the journal's rotation threshold: the active
	// journal-<seq>.jsonl segment seals once it would exceed this many
	// bytes, and sealed segments compact into checkpoint events so
	// replay scales with live+retained jobs. 0 means 4 MiB.
	SegmentBytes int64
	// InlineLimit is the largest event payload (SubmitRequest,
	// ResultSummary) kept inline in a journal line; bigger payloads
	// spill to the content-addressed blob store under
	// <StateDir>/blobs and the line carries a {sha256, size} ref.
	// 0 means 32 KiB; negative disables spilling.
	InlineLimit int
	// CompactEvery is the cadence of journal compaction and blob GC
	// when StateDir is set; 0 means 1m, negative disables the loop
	// (CompactNow still works).
	CompactEvery time.Duration
	// MaxJobRecords bounds how many terminal jobs stay in the
	// in-memory job table (and so in listings); the oldest terminal
	// records are pruned first, queued/leased jobs never. 0 means
	// unbounded — with StateDir set the journal keeps full history
	// regardless of pruning.
	MaxJobRecords int
	// MaxQueued bounds each tenant's pending queue: a tenant's
	// submissions beyond it fail with ErrQueueFull (HTTP 429), so one
	// tenant cannot queue jobs until the server OOMs. Per tenant, not
	// global — a flooding tenant filling its own bound cannot make the
	// service 429 everyone else. 0 means unbounded. Tenants listed in
	// Tenants may override it individually.
	MaxQueued int
	// Tenants configures named tenants' scheduling weights, queue and
	// concurrency bounds, and submit rate limits. Tenants not listed
	// here get DefaultTenantLimits (resolved against MaxQueued); nil
	// means every tenant is default. Submissions without a tenant land
	// on DefaultTenant ("default").
	Tenants map[string]TenantLimits
	// DefaultTenantLimits applies to tenants absent from Tenants, and
	// fills the zero fields of those present. Its own zero fields fall
	// back to weight 1, MaxQueued above, no concurrency cap, no rate
	// limit.
	DefaultTenantLimits TenantLimits
	// PreemptAfter arms lease preemption: a starved tenant whose queue
	// head carries Priority > 0 and has waited this long below its fair
	// share may revoke the youngest leased job of the most over-share
	// tenant (the job requeues and reruns byte-identically, like a
	// lease expiry). 0 disables preemption.
	PreemptAfter time.Duration
	// RemoteOnly starts the service with zero in-process lease holders:
	// the coordinator only queues, leases and records jobs, and every
	// campaign executes on remote workers (cmd/impeccable-worker)
	// pulling work through the lease API.
	RemoteOnly bool
	// LeaseTTL is the default lease duration: a worker (remote or
	// in-process) that stops heartbeating for this long loses its job,
	// which re-enters the queue under its original ID (Seed and
	// LibOffset preserved, so the rerun is byte-identical). Workers may
	// request a different TTL per lease, clamped to [1s, 5m]. 0 means
	// 30s.
	LeaseTTL time.Duration
	// Logf, when set, receives one access-log line per instrumented
	// HTTP request (method, path, status, latency, request ID). Nil
	// disables access logging; metrics are recorded either way.
	Logf func(format string, args ...any)
}

// Service is a long-lived, multi-tenant campaign evaluation service:
// submitted campaigns queue for lease holders (in-process and remote)
// and share a sharded docking-score cache, so overlapping submissions
// dedupe their most expensive evaluations.
type Service struct {
	scores     *ScoreCache
	targets    map[string]*receptor.Target
	sched      *scheduler
	workers    int // per-campaign worker width
	maxResults int // full campaign results retained; <0 = unbounded
	started    time.Time
	met        *metrics
	logf       func(format string, args ...any)
	limiter    *tenantLimiter // per-tenant submit token buckets

	// Persistence (zero-valued when Options.StateDir is empty).
	stateDir   string
	jl         *journal
	blobs      blob.Store
	snapMu     sync.Mutex    // serializes checkpoint writers; guards snapChunks, snapRollup
	snapChunks []blob.Ref    // the chunks the live manifest names (GC pins)
	snapRollup bool          // the next checkpoint rewrites the whole cache
	snapPoke   chan struct{} // wakes snapshotLoop: a completion stored something
	snapStop   chan struct{} // stops the snapshot and compaction loops
	snapWG     sync.WaitGroup
	stopOnce   sync.Once // persistence teardown runs once

	fullMu  sync.Mutex
	fullIDs []string // jobs holding a full in-memory result, oldest first
}

// SubmitRequest describes one campaign submission. Zero-valued fields
// take the campaign defaults for the target.
type SubmitRequest struct {
	// Tenant names the submitting tenant for fair-share scheduling,
	// quotas and rate limits; empty means DefaultTenant (the HTTP layer
	// also accepts an X-Tenant header). Names are 1–64 chars of
	// [A-Za-z0-9._-]. Scheduling metadata only: it never changes the
	// campaign's scientific output.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the submission's priority class within its tenant
	// (0 = normal, up to MaxPriority). Higher-priority jobs dequeue
	// first within the tenant, and a starved tenant whose queue head
	// carries Priority > 0 may trigger preemption.
	Priority      int    `json:"priority,omitempty"`
	Target        string `json:"target"` // receptor name, e.g. "PLPro"
	LibrarySize   int    `json:"library_size,omitempty"`
	TrainSize     int    `json:"train_size,omitempty"`
	CGCount       int    `json:"cg_count,omitempty"`
	TopCompounds  int    `json:"top_compounds,omitempty"`
	OutliersPer   int    `json:"outliers_per,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
	LibOffset     uint64 `json:"lib_offset,omitempty"` // library window start
	FastProtocols bool   `json:"fast_protocols,omitempty"`
	// Streaming is accepted and ignored: it selected a funnel driver
	// that was removed. It stays so strict decoding still accepts old
	// clients' requests and journaled requests re-hash unchanged.
	Streaming bool `json:"streaming,omitempty"`
}

// jobResult pairs the campaign result with the serializable summary.
// full may be released by retention trimming; summary is kept forever.
type jobResult struct {
	full    *campaign.Result
	summary ResultSummary
}

// ResultSummary is the JSON-friendly projection of a campaign result.
// Funnel carries the cost accounting (DockEvals, DockCacheHits).
type ResultSummary struct {
	Funnel          campaign.FunnelStats     `json:"funnel"`
	Top             []campaign.TopComparison `json:"top"`
	ScientificYield float64                  `json:"scientific_yield"`
}

// NewService builds and starts a service; call Shutdown when done. It
// panics if Options.StateDir is set but unusable — services that need
// to handle persistence errors should call Open instead.
func NewService(opts Options) *Service {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds and starts a service. With Options.StateDir set it
// restores durable state first: the cache checkpoint is imported, the
// job journal is replayed (terminal jobs become servable records;
// interrupted jobs re-enter the queue under their original IDs), and
// only then does the service accept new submissions.
func Open(opts Options) (*Service, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / 2
		if workers < 1 {
			workers = 1
		}
	}
	shards := opts.CacheShards
	if shards <= 0 {
		shards = 64
	}
	targets := opts.Targets
	if targets == nil {
		targets = receptor.StandardTargets()
	}
	maxResults := opts.MaxRetainedResults
	if maxResults == 0 {
		maxResults = 64
	}
	s := &Service{
		scores:     NewScoreCache(shards, opts.MaxCacheEntries),
		targets:    make(map[string]*receptor.Target, len(targets)),
		workers:    opts.CampaignWorkers,
		maxResults: maxResults,
		started:    time.Now(),
		met:        newMetrics(),
		logf:       opts.Logf,
		stateDir:   opts.StateDir,
		snapPoke:   make(chan struct{}, 1),
		snapStop:   make(chan struct{}),
	}
	for _, t := range targets {
		s.targets[t.Name] = t
	}
	// One resolver feeds both the scheduler (weights, queue and
	// concurrency bounds) and the submit rate limiter, so a tenant's
	// limits cannot skew between the two layers. The map is copied:
	// callers mutating their Options after Open must not race the
	// scheduler.
	tenantCfg := make(map[string]TenantLimits, len(opts.Tenants))
	for name, lim := range opts.Tenants {
		tenantCfg[name] = lim
	}
	defaults := opts.DefaultTenantLimits
	if defaults.MaxQueued == 0 {
		defaults.MaxQueued = opts.MaxQueued
	}
	limitsFor := func(tenant string) TenantLimits {
		return tenantCfg[tenant].withDefaults(defaults)
	}
	s.limiter = newTenantLimiter(limitsFor)
	if opts.RemoteOnly {
		workers = 0
	}
	cfg := schedConfig{
		localSlots:   workers,
		leaseTTL:     opts.LeaseTTL,
		maxQueued:    opts.MaxQueued,
		maxRecords:   opts.MaxJobRecords,
		limits:       limitsFor,
		preemptAfter: opts.PreemptAfter,
		met:          s.met,
		bus:          newEventBus(s.met),
	}
	var replayed []*job
	var maxID int
	if s.stateDir != "" {
		if err := os.MkdirAll(s.stateDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: creating state dir: %w", err)
		}
		blobs, err := blob.Open(filepath.Join(s.stateDir, blobDirName))
		if err != nil {
			return nil, err
		}
		s.blobs = blobs
		var events []journalEvent
		if s.jl, events, err = openJournal(s.stateDir, blobs, opts.SegmentBytes, opts.InlineLimit); err != nil {
			return nil, err
		}
		if s.snapChunks, s.snapRollup, err = loadSnapshot(s.stateDir, blobs, s.scores); err != nil {
			return nil, err
		}
		s.scores.trackDirty() // from here on: what the load restored is on disk already
		replayed, maxID = replayJournal(events, blobs)
		s.jl.onAppend = func(events, bytes int, fsync time.Duration) {
			s.met.journalAppends.Add(float64(events))
			s.met.journalBytes.Add(float64(bytes))
			s.met.journalFsync.Observe(fsync.Seconds())
		}
		s.jl.onRotate = func() { s.met.journalRotations.Inc() }
		cfg.record = s.jl.append
	}
	s.sched = newScheduler(cfg)
	s.registerCollectors()
	if len(replayed) > 0 || maxID > 0 {
		s.sched.restore(replayed, maxID)
		s.sched.pruneTerminal()
	}
	// The in-process holders' runs abort when the drain begins.
	holdCtx, stopHolders := context.WithCancel(context.Background())
	s.sched.wg.Add(1)
	go func() { defer s.sched.wg.Done(); <-s.sched.quit; stopHolders() }()
	for i := 0; i < workers; i++ {
		s.sched.wg.Add(1)
		go s.holdLocal(holdCtx, fmt.Sprint(localWorkerPrefix, i))
	}
	if s.stateDir != "" {
		every := opts.SnapshotEvery
		if every <= 0 {
			every = 30 * time.Second
		}
		s.snapWG.Add(1)
		go s.snapshotLoop(every)
		if opts.CompactEvery >= 0 {
			compactEvery := opts.CompactEvery
			if compactEvery == 0 {
				compactEvery = defaultCompactEvery
			}
			s.snapWG.Add(1)
			go s.compactLoop(compactEvery)
		}
	}
	return s, nil
}

// snapshotLoop is the only periodic checkpoint writer: it wakes on its
// ticker (so a mid-campaign crash keeps most of an in-process run's
// docking labels) or on a poke from complete, and a burst of pokes
// during one checkpoint coalesces into the next.
func (s *Service) snapshotLoop(every time.Duration) {
	defer s.snapWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-s.snapPoke:
		case <-s.snapStop:
			return
		}
		_ = s.Snapshot()
	}
}

// Snapshot checkpoints the score cache synchronously: the entries
// stored since the last checkpoint go to the content-addressed blob
// store as one chunk, and the manifest naming every live chunk is
// installed atomically. Nothing stored means nothing encoded, hashed or
// written. Past maxSnapshotChunks (or on a state dir in an older
// format) the whole cache is rolled up into one base chunk instead. A
// failed write puts the entries back for the next checkpoint. A no-op
// without a StateDir.
func (s *Service) Snapshot() error {
	if s.stateDir == "" {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	delta := s.scores.takeDirty()
	if len(delta) == 0 && !s.snapRollup {
		return nil
	}
	start := time.Now()
	entries, prev := delta, s.snapChunks
	if s.snapRollup || len(prev) >= maxSnapshotChunks {
		entries, prev = s.scores.Export(), nil
	}
	chunks, err := saveSnapshot(s.stateDir, s.blobs, entries, prev)
	if err != nil {
		s.scores.markDirty(delta)
		return err
	}
	s.snapChunks, s.snapRollup = chunks, false
	s.met.snapshots.Inc()
	s.met.snapshotSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Targets lists the receptor names the service accepts.
func (s *Service) Targets() []string {
	names := make([]string, 0, len(s.targets))
	for n := range s.targets {
		names = append(names, n)
	}
	return names
}

// Per-request ceilings: one tenant must not be able to OOM or
// monopolize the shared server with a single oversized submission.
const (
	MaxLibrarySize  = 1_000_000
	MaxTrainSize    = 100_000
	MaxCGCount      = 500
	MaxTopCompounds = 100
	MaxOutliersPer  = 100
)

// Submit validates a request and enqueues it, returning the job ID.
func (s *Service) Submit(req SubmitRequest) (string, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit carrying the request context: when the context
// came through the HTTP middleware, its request ID is journaled with
// the submitted event so the durable record traces back to the call
// that caused it.
func (s *Service) SubmitCtx(ctx context.Context, req SubmitRequest) (string, error) {
	if err := validateTenant(req.Tenant); err != nil {
		return "", err
	}
	if req.Priority < 0 || req.Priority > MaxPriority {
		return "", fmt.Errorf("service: priority %d out of range [0, %d]", req.Priority, MaxPriority)
	}
	if _, ok := s.targets[req.Target]; !ok {
		return "", fmt.Errorf("service: unknown target %q (have %v)", req.Target, s.Targets())
	}
	for _, lim := range []struct {
		name     string
		val, max int
	}{
		{"library_size", req.LibrarySize, MaxLibrarySize},
		{"train_size", req.TrainSize, MaxTrainSize},
		{"cg_count", req.CGCount, MaxCGCount},
		{"top_compounds", req.TopCompounds, MaxTopCompounds},
		{"outliers_per", req.OutliersPer, MaxOutliersPer},
	} {
		if lim.val > lim.max {
			return "", fmt.Errorf("service: %s %d too large (max %d)", lim.name, lim.val, lim.max)
		}
	}
	if req.LibrarySize != 0 && req.LibrarySize < 10 {
		return "", fmt.Errorf("service: library_size %d too small (min 10)", req.LibrarySize)
	}
	if req.TrainSize != 0 && req.TrainSize < 10 {
		return "", fmt.Errorf("service: train_size %d too small (min 10)", req.TrainSize)
	}
	// Admission control, after validation (a malformed request must not
	// burn a token) and before the scheduler (the limiter's mutex is
	// never held together with the scheduler's).
	now := time.Now()
	tenant := normalizeTenant(req.Tenant)
	if ok, wait := s.limiter.allow(tenant, now); !ok {
		s.met.tenantRejections.With(tenant, rejectRateLimited).Inc()
		return "", &RateLimitError{Tenant: tenant, RetryAfter: wait}
	}
	return s.sched.submit(req, now, RequestIDFrom(ctx))
}

// BaseConfig translates a submission into the campaign config knobs
// that determine its scientific output — the part shared by in-process
// lease holders and remote workers, so both run byte-identical
// science. Callers attach caches, worker width, cancellation and
// progress observers on top.
func BaseConfig(req SubmitRequest, t *receptor.Target) campaign.Config {
	cfg := campaign.DefaultConfig(t)
	if req.LibrarySize > 0 {
		cfg.LibrarySize = req.LibrarySize
	}
	if req.TrainSize > 0 {
		cfg.TrainSize = req.TrainSize
	}
	if req.CGCount > 0 {
		cfg.CGCount = req.CGCount
	}
	if req.TopCompounds > 0 {
		cfg.TopCompounds = req.TopCompounds
	}
	if req.OutliersPer > 0 {
		cfg.OutliersPer = req.OutliersPer
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	cfg.FastProtocols = req.FastProtocols
	return cfg
}

// localWorkerPrefix is the worker-ID namespace of in-process lease
// holders ("local/0", "local/1", ...). It is reserved: the HTTP lease
// endpoint refuses it, and a journaled lease carrying it replays as
// queued — its holder died with the process that wrote it.
const localWorkerPrefix = "local/"

// retainFull notes that the job now holds a full campaign result and
// releases the oldest ones beyond the retention bound. Summaries (what
// the HTTP API serves) are kept for every job; only the heavyweight
// in-memory results go.
func (s *Service) retainFull(id string) {
	if s.maxResults < 0 {
		return
	}
	s.fullMu.Lock()
	s.fullIDs = append(s.fullIDs, id)
	n := max(0, len(s.fullIDs)-s.maxResults)
	release := s.fullIDs[:n]
	s.fullIDs = s.fullIDs[n:]
	s.fullMu.Unlock()
	for _, id := range release {
		if j, ok := s.sched.get(id); ok { // not pruned meanwhile
			j.mu.Lock()
			if j.result != nil {
				j.result.full = nil
			}
			j.mu.Unlock()
		}
	}
}

// LeaseGrant is what a worker receives from Lease: the job, its full
// submission (Seed and LibOffset included) and the lease window. The
// worker must heartbeat before ExpiresAt or the job is re-enqueued.
type LeaseGrant struct {
	JobID      string        `json:"job_id"`
	Req        SubmitRequest `json:"req"`
	TTLSeconds float64       `json:"ttl_seconds"`
	ExpiresAt  time.Time     `json:"expires_at"`
	// Token authenticates this lease's heartbeats and completion.
	// Worker IDs are published in job listings; the token is shared
	// only with the lease holder, so a forged complete (which would
	// poison the shared score cache) needs more than a listing read.
	Token string `json:"token"`
}

// Lease hands the next runnable job to the named worker under a TTL
// lease (ttl 0 = the service default, explicit values clamped to
// [1s, 5m]). Returns (nil, nil) when no work is available.
func (s *Service) Lease(workerID string, ttl time.Duration) (*LeaseGrant, error) {
	j, err := s.sched.lease(workerID, ttl, time.Now())
	if err != nil || j == nil {
		return nil, err
	}
	j.mu.Lock()
	grant := &LeaseGrant{
		JobID:      j.id,
		Req:        j.req,
		TTLSeconds: j.leaseTTL.Seconds(),
		ExpiresAt:  j.leaseExpiry,
		Token:      j.leaseToken,
	}
	j.mu.Unlock()
	return grant, nil
}

// Heartbeat extends the named worker's lease on a job and records the
// remotely observed stage/progress, returning the new expiry. The
// token must be the one granted with the lease. A heartbeat that comes
// back ErrLeaseLost tells the worker to abandon the run (the lease
// expired, or the job was canceled).
func (s *Service) Heartbeat(workerID, token, jobID, stage string, progress float64) (time.Time, error) {
	return s.sched.heartbeat(workerID, token, jobID, stage, progress, time.Now())
}

// WorkerResult is the outcome a worker posts back for a leased job:
// exactly one of Summary (success), Error (failure) or Canceled, plus
// the score-cache delta the run produced. Features is accepted on the
// wire for older workers and ignored: a feature vector is cheaper to
// recompute from its ID than to decode.
type WorkerResult struct {
	Summary  *ResultSummary `json:"summary,omitempty"`
	Error    string         `json:"error,omitempty"`
	Canceled bool           `json:"canceled,omitempty"`
	Scores   []ScoreEntry   `json:"scores,omitempty"`
	Features []FeatureEntry `json:"features,omitempty"`
	// Stats carries the worker's local score-cache effectiveness, so
	// the coordinator's /metrics shows fleet-wide behavior, not just its
	// own. Stage timings travel in Summary.
	Stats *WorkerRunStats `json:"stats,omitempty"`
}

// FeatureEntry is one feature vector as older workers shipped it with
// a completion. Nothing ships, merges or persists vectors any more; the
// type remains so such a completion still decodes.
type FeatureEntry struct {
	ID  uint64
	Vec []float64
}

// WorkerRunStats is what one remote run reports about itself: the
// worker-local score-cache delta for the run (hits/misses/evictions
// during this job only, not since worker start). Older workers also
// sent feature_cache, timings and wall_seconds, which decode as
// unknown fields and are ignored.
type WorkerRunStats struct {
	ScoreCache CacheStats `json:"score_cache"`
}

// Complete finalizes a leased job with a worker's result and merges
// its score delta into the coordinator's sharded cache. The delta is
// merged only when the completion is accepted: an unknown job, a lost
// lease or a malformed outcome must not be able to write into the
// shared cache (a poisoned score entry would silently break the
// byte-identical determinism every rerun relies on). Entries for
// another target than the job's, or without a pose, are dropped.
func (s *Service) Complete(workerID, token, jobID string, res WorkerResult) error {
	return s.complete(workerID, token, jobID, res, nil)
}

// complete is Complete plus the in-memory campaign result an
// in-process holder hands over for FullResult (nil from remote workers).
func (s *Service) complete(workerID, token, jobID string, res WorkerResult, full *campaign.Result) error {
	state := StateDone
	switch {
	case res.Canceled:
		state = StateCanceled
	case res.Error != "":
		state = StateFailed
	case res.Summary == nil:
		return fmt.Errorf("service: complete for job %s carries no summary, error or cancel", jobID)
	}
	// Resolve the job's tenant and target before completing: the
	// completion itself may prune the record (MaxJobRecords). The fields
	// are immutable after submit, so the unlocked read is safe.
	tenant, target := DefaultTenant, ""
	if j, ok := s.sched.get(jobID); ok {
		tenant, target = j.tenant, j.req.Target
	}
	if err := s.sched.complete(workerID, token, jobID, state, res.Error, res.Summary, full, time.Now()); err != nil {
		return err
	}
	if full != nil {
		s.retainFull(jobID)
	}
	var delta []ScoreEntry
	for _, e := range res.Scores {
		if e.Target == target && len(e.Result.Genome) > 0 {
			delta = append(delta, e)
		}
	}
	s.scores.Import(delta)
	// Fold the run's observability payload into the fleet-wide series —
	// only now, after the completion was accepted, so a lost lease
	// cannot inflate the counters.
	s.met.addWorkerCacheStats(res.Stats)
	if state == StateDone {
		// Both holders' summaries carry the funnel's own stage windows.
		s.met.observeFunnel(tenant, res.Summary.Funnel.Timings, res.Summary.Funnel.WallSeconds)
	}
	// Wake the checkpoint writer, after the merge so this job's labels
	// are in what it writes: a remote run's delta, or what an in-process
	// run put into the shared cache directly. The ack does not wait.
	if len(delta) > 0 || full != nil {
		select {
		case s.snapPoke <- struct{}{}:
		default:
		}
	}
	return nil
}

// Draining reports whether Shutdown has begun: a draining coordinator
// answers health probes with 503 so load balancers stop routing to it.
func (s *Service) Draining() bool { return s.sched.isDraining() }

// Status returns the snapshot of one job.
func (s *Service) Status(id string) (JobSnapshot, bool) {
	j, ok := s.sched.get(id)
	if !ok {
		return JobSnapshot{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked(), true
}

// Jobs lists all jobs in submission order.
func (s *Service) Jobs() []JobSnapshot { return s.sched.list() }

// JobQuery bounds and filters a Jobs listing.
type JobQuery struct {
	State  JobState // only jobs in this state; "" = all
	Tenant string   // only this tenant's jobs; "" = all
	After  string   // exclusive job-ID cursor (pagination); "" = from the start
	Limit  int      // max snapshots returned; <= 0 = unbounded
}

// JobsFiltered lists jobs in submission order under the query's
// bounds; always returns a non-nil slice.
func (s *Service) JobsFiltered(q JobQuery) []JobSnapshot {
	return s.sched.listFiltered(q)
}

// Cancel requests cancellation of a job; false if the ID is unknown
// or the service is already shut down.
func (s *Service) Cancel(id string) bool {
	_, err := s.sched.cancelJob(id, "")
	return err == nil
}

// Result returns the summary of a completed job. The error distinguishes
// unknown IDs from jobs that are not (or never will be) done.
func (s *Service) Result(id string) (ResultSummary, error) {
	j, ok := s.sched.get(id)
	if !ok {
		return ResultSummary{}, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateDone && j.result != nil:
		return j.result.summary, nil
	case j.state == StateDone && j.summaryRef != nil:
		// The summary was spilled to the blob store (journal replay
		// resolves artifacts lazily, so cold starts scale with event
		// count, not artifact bytes). Resolve and cache it now; the read
		// is hash-verified, so a corrupt artifact surfaces here instead
		// of being served.
		sum, err := s.resolveSummary(j.summaryRef)
		if err != nil {
			return ResultSummary{}, fmt.Errorf("service: job %s summary: %w", id, err)
		}
		j.result = &jobResult{summary: *sum}
		return *sum, nil
	case j.state.Terminal():
		return ResultSummary{}, fmt.Errorf("%w: job %s is %s", ErrNoResult, id, j.state)
	default:
		return ResultSummary{}, fmt.Errorf("%w: job %s is %s", ErrNotFinished, id, j.state)
	}
}

// resolveSummary loads a spilled ResultSummary from the blob store.
func (s *Service) resolveSummary(ref *blob.Ref) (*ResultSummary, error) {
	if s.blobs == nil {
		return nil, fmt.Errorf("no blob store attached")
	}
	data, err := s.blobs.Get(*ref)
	if err != nil {
		return nil, err
	}
	var sum ResultSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		return nil, fmt.Errorf("decoding summary artifact: %w", err)
	}
	return &sum, nil
}

// FullResult returns the complete in-memory campaign result of a done
// job run by an in-process holder (for embedders; not exposed over
// HTTP; remote workers post summaries only). Returns
// ErrNoResult once retention trimming has released the full result —
// the summary remains available via Result.
func (s *Service) FullResult(id string) (*campaign.Result, error) {
	j, ok := s.sched.get(id)
	if !ok {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone && j.result != nil {
		if j.result.full == nil {
			return nil, fmt.Errorf("%w: job %s's full result was released by retention trimming", ErrNoResult, id)
		}
		return j.result.full, nil
	}
	return nil, fmt.Errorf("%w: job %s is %s", ErrNotFinished, id, j.state)
}

// Sentinel errors for Result/FullResult.
var (
	ErrUnknownJob  = errors.New("service: unknown job")
	ErrNotFinished = errors.New("service: job not finished")
	ErrNoResult    = errors.New("service: job produced no result")
)

// ScoreCacheStats snapshots the shared docking-score cache.
func (s *Service) ScoreCacheStats() CacheStats { return s.scores.Stats() }

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.started) }

// Shutdown gracefully drains the service: new submissions are
// rejected, no more leases are granted or completed, in-process runs
// are aborted with their leases abandoned, and — with a StateDir — a
// final cache checkpoint is written and the journal is closed. No job
// changes state in a drain, so a service reopened on the same StateDir
// re-enqueues queued and in-process-held jobs and re-adopts remote
// leases. Idempotent.
func (s *Service) Shutdown() {
	s.sched.shutdown()
	if s.stateDir == "" {
		return
	}
	s.stopOnce.Do(func() {
		close(s.snapStop)
		s.snapWG.Wait()
		_ = s.Snapshot()
		_ = s.jl.close()
	})
}

// Wait blocks until the job reaches a terminal state or the timeout
// elapses, returning the final snapshot.
func (s *Service) Wait(id string, timeout time.Duration) (JobSnapshot, error) {
	deadline := time.Now().Add(timeout)
	for {
		snap, ok := s.Status(id)
		if !ok {
			return JobSnapshot{}, ErrUnknownJob
		}
		if snap.State.Terminal() {
			return snap, nil
		}
		if time.Now().After(deadline) {
			return snap, fmt.Errorf("service: job %s still %s after %v", id, snap.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ScoreCacheForTarget exposes a per-target cache view for in-process
// embedders that drive dock.Engine directly. The view shares entries
// with the service's own campaigns, which dock with the default
// throughput parameters (Runs=2) — attach it only to engines using the
// same configuration (see dock.ScoreCache).
func (s *Service) ScoreCacheForTarget(name string) dock.ScoreCache {
	return s.scores.ForTarget(name)
}
