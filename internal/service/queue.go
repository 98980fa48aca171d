package service

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impeccable/internal/blob"
	"impeccable/internal/campaign"
)

// JobState is the lifecycle state of a submitted campaign.
type JobState string

const (
	StateQueued JobState = "queued"
	// StateLeased marks a job handed to a remote worker under a TTL
	// lease; a worker that stops heartbeating loses the lease and the
	// job re-enters the queue under its original ID.
	StateLeased JobState = "leased"
	// StateRunning is accepted as input (?state=running, old journals)
	// but never produced: every execution holds a lease.
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// countedStates enumerates every state once, indexing the scheduler's
// incrementally maintained per-state counters.
var countedStates = [...]JobState{
	StateQueued, StateLeased, StateRunning, StateDone, StateFailed, StateCanceled,
}

const numStates = len(countedStates)

// stateIdx maps a state to its counter slot; -1 for a state the
// scheduler does not know (which is therefore never tallied).
func stateIdx(st JobState) int {
	for i, s := range countedStates {
		if s == st {
			return i
		}
	}
	return -1
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// job is the scheduler's record of one submitted campaign.
type job struct {
	id string
	// tenant is the normalized owner (never empty: legacy submissions
	// land on DefaultTenant). Immutable after submit/restore.
	tenant string
	req    SubmitRequest

	mu        sync.Mutex
	state     JobState
	stage     string  // last reported campaign stage
	progress  float64 // approximate completed fraction [0,1]
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *jobResult
	// summaryRef points at the job's spilled ResultSummary in the blob
	// store when replay restored the job from a ref instead of an
	// inline summary; Service.Result resolves and caches it lazily.
	summaryRef *blob.Ref
	// queuedAt is when the job last entered its tenant's pending queue
	// (submit, lease-expiry requeue, or preemption). Guarded by
	// scheduler.mu, not j.mu: every writer and the preemption arbiter
	// (which reads it to decide whether the queue head is starved)
	// already hold the scheduler lock.
	queuedAt time.Time

	// Lease bookkeeping: which worker holds the job, until when,
	// and the TTL each heartbeat extends the lease by. leaseWorker is
	// kept after completion so listings show which worker ran the job.
	// leaseToken is the per-lease secret the holder must present on
	// heartbeat/complete: worker IDs are published in job listings, so
	// they alone must not authenticate a completion (a forged complete
	// could poison the shared score cache).
	leaseWorker string
	leaseToken  string
	leaseExpiry time.Time
	leaseTTL    time.Duration
	// lastBeat is when the lease was granted or last heartbeated —
	// the liveness signal surfaced as heartbeat_age_seconds in status
	// responses so an operator can spot a worker going quiet before the
	// TTL expires it.
	lastBeat time.Time
}

// snapshotLocked builds a JobSnapshot; callers hold j.mu.
func (j *job) snapshotLocked() JobSnapshot {
	s := JobSnapshot{
		ID:        j.id,
		Tenant:    j.tenant,
		Priority:  j.req.Priority,
		Target:    j.req.Target,
		State:     j.state,
		Stage:     j.stage,
		Progress:  j.progress,
		Error:     j.err,
		Submitted: j.submitted,
		Worker:    j.leaseWorker,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if j.state == StateLeased {
		t := j.leaseExpiry
		s.LeaseExpires = &t
		if !j.lastBeat.IsZero() {
			age := time.Since(j.lastBeat).Seconds()
			if age < 0 {
				age = 0
			}
			s.HeartbeatAge = &age
		}
	}
	return s
}

// JobSnapshot is the externally visible status of a job.
type JobSnapshot struct {
	ID string `json:"id"`
	// Tenant is the submission's owner; "default" for legacy
	// tenant-less submissions.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the submission's priority class (0 = normal); a
	// starved tenant whose queue head carries Priority > 0 may preempt
	// an over-share tenant's leased job.
	Priority  int        `json:"priority,omitempty"`
	Target    string     `json:"target"`
	State     JobState   `json:"state"`
	Stage     string     `json:"stage,omitempty"`
	Progress  float64    `json:"progress"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
	// Worker is the holder (or last holder) of the job's lease: a remote
	// worker's ID, or "local/<n>" for an in-process holder.
	Worker string `json:"worker,omitempty"`
	// Lease liveness, present only while the job is leased: when the
	// lease lapses unless renewed, and how many seconds ago the holder
	// was last heard from (grant or heartbeat).
	LeaseExpires *time.Time `json:"lease_expires_at,omitempty"`
	HeartbeatAge *float64   `json:"heartbeat_age_seconds,omitempty"`
}

// Duration reports how long the job ran. Jobs that never left the
// queue — canceled while queued, so Finished is set while Started is
// nil — report zero; the result is never negative.
func (s JobSnapshot) Duration() time.Duration {
	if s.Started == nil || s.Finished == nil {
		return 0
	}
	if d := s.Finished.Sub(*s.Started); d > 0 {
		return d
	}
	return 0
}

// ErrQueueFull is returned by Submit when Options.MaxQueued pending
// jobs are already waiting (HTTP surfaces it as 429).
var ErrQueueFull = errors.New("service: submission queue is full")

// ErrShuttingDown is returned by Submit once a drain has begun (HTTP
// surfaces it as 503, matching the draining health probe).
var ErrShuttingDown = errors.New("service: shutting down")

// ErrLeaseLost is returned to a lease holder whose lease on a job is
// no longer valid: it expired or was preempted and the job was
// re-enqueued (possibly re-leased to another worker), or the job was
// canceled. The holder must abandon the run; the coordinator owns the
// job again.
var ErrLeaseLost = errors.New("service: lease lost")

// Lease TTL bounds. A worker-requested TTL is clamped to
// [minLeaseTTL, maxLeaseTTL]; the lower clamp relaxes to the
// scheduler's configured default when that is smaller (fast tests).
const (
	defaultLeaseTTL = 30 * time.Second
	minLeaseTTL     = time.Second
	maxLeaseTTL     = 5 * time.Minute
)

// durSamples is the window of recently finished runs feeding the
// Retry-After backpressure hint.
const durSamples = 32

// schedConfig bundles the scheduler's construction parameters.
type schedConfig struct {
	// localSlots counts the service's in-process lease holders, for
	// slot accounting only: the scheduler itself executes nothing.
	localSlots int
	leaseTTL   time.Duration // default lease TTL; 0 = defaultLeaseTTL
	maxQueued  int           // per-tenant pending bound for tenants without their own; 0 = unbounded
	maxRecords int           // retained terminal jobs; 0 = unbounded
	// limits resolves a tenant's configured limits; nil means every
	// tenant gets the defaults (weight 1, maxQueued above).
	limits func(tenant string) TenantLimits
	// preemptAfter arms preemption: a starved tenant whose queue head
	// carries Priority > 0 and has waited this long may revoke an
	// over-share tenant's youngest lease. 0 disables preemption.
	preemptAfter time.Duration
	record       func(...journalEvent) error // journal appender (one fsync per call); nil = in-memory only
	met          *metrics                    // instrument sink; nil = private registry
	bus          *eventBus                   // lifecycle event fan-out; nil = private bus
}

// scheduler queues jobs and hands them to lease holders — remote
// workers over HTTP, in-process holders by function call — under TTL
// leases. Pending work lives in per-tenant queues arbitrated by deficit
// round-robin, so one tenant's flood cannot starve another's trickle.
type scheduler struct {
	workerSlots  int // in-process lease holders (each an execution slot, idle or leasing)
	leaseTTL     time.Duration
	maxQueued    int // per-tenant default pending bound
	maxRecords   int
	limits       func(tenant string) TenantLimits
	preemptAfter time.Duration
	record       func(...journalEvent) error
	met          *metrics
	bus          *eventBus

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for listing
	// tenants holds each tenant's pending queue, DRR deficit and
	// in-flight tally; ring fixes the arbiter's visit order (tenants in
	// first-seen order — map iteration would be nondeterministic) and
	// ringCur is the tenant the next dequeue considers first.
	tenants  map[string]*tenantQueue
	ring     []string
	ringCur  int
	pendingN int             // total pending jobs across all tenants
	leases   map[string]*job // jobs currently out on a lease
	nextID   int
	closed   bool // drain begun: no submits, grants, completions or cancels

	// stateN maintains per-state job tallies incrementally so health
	// probes are O(states), not O(jobs × mutex). Updated at every
	// transition by the goroutine holding the job's mutex.
	stateN [numStates]atomic.Int64

	// durRing holds the durations of recently finished runs, feeding
	// retryAfterSeconds.
	durRing [durSamples]time.Duration
	durIdx  int
	durN    int

	wake chan struct{} // pokes idle in-process holders; buffered
	quit chan struct{}
	wg   sync.WaitGroup // the lease watchdog plus the service's in-process holders and their drain watcher
}

// newScheduler starts the lease-expiry watchdog.
func newScheduler(cfg schedConfig) *scheduler {
	ttl := cfg.leaseTTL
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	// Tests construct schedulers without a Service or a journal; give
	// them private instruments and a no-op appender so the counting and
	// journaling paths stay unconditional.
	record := cfg.record
	if record == nil {
		record = func(...journalEvent) error { return nil }
	}
	met := cfg.met
	if met == nil {
		met = newMetrics()
	}
	bus := cfg.bus
	if bus == nil {
		bus = newEventBus(met)
	}
	s := &scheduler{
		workerSlots:  cfg.localSlots,
		leaseTTL:     ttl,
		maxQueued:    cfg.maxQueued,
		maxRecords:   cfg.maxRecords,
		limits:       cfg.limits,
		preemptAfter: cfg.preemptAfter,
		record:       record,
		met:          met,
		bus:          bus,
		jobs:         make(map[string]*job),
		tenants:      make(map[string]*tenantQueue),
		leases:       make(map[string]*job),
		wake:         make(chan struct{}, cfg.localSlots+1),
		quit:         make(chan struct{}),
	}
	s.wg.Add(1)
	go s.leaseLoop()
	return s
}

// countAdd adjusts one state's tally.
func (s *scheduler) countAdd(st JobState, d int64) {
	if i := stateIdx(st); i >= 0 {
		s.stateN[i].Add(d)
	}
}

// countMove shifts one job between per-state tallies.
func (s *scheduler) countMove(from, to JobState) {
	s.countAdd(from, -1)
	s.countAdd(to, 1)
}

// poke wakes one idle in-process holder, if any is waiting.
func (s *scheduler) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// publishLocked emits one event for the job's current state onto the
// bus. Callers hold j.mu; the bus lock nests innermost and never
// blocks, so publishing from inside scheduler transitions is safe.
func (s *scheduler) publishLocked(j *job, typ string, now time.Time) {
	ev := JobEvent{
		Job:      j.id,
		Tenant:   j.tenant,
		Type:     typ,
		State:    j.state,
		Stage:    j.stage,
		Progress: j.progress,
		Worker:   j.leaseWorker,
		Error:    j.err,
		Time:     now,
	}
	if typ == evTypeState && j.state == StateDone && j.result != nil {
		sum := j.result.summary
		ev.Summary = &sum
	}
	s.bus.publish(ev)
}

// markTerminal counts one terminal transition on the exposition.
func (s *scheduler) markTerminal(st JobState) {
	s.met.jobsTerminal.With(string(st)).Inc()
}

// tq returns (creating on first use) a tenant's queue state; callers
// hold s.mu. New tenants join the back of the DRR ring with their
// configured (or default) weight and bounds.
func (s *scheduler) tq(tenant string) *tenantQueue {
	if q, ok := s.tenants[tenant]; ok {
		return q
	}
	lim := s.limitsFor(tenant)
	q := &tenantQueue{
		name:       tenant,
		weight:     lim.Weight,
		maxQueued:  lim.MaxQueued,
		maxRunning: lim.MaxRunning,
	}
	s.tenants[tenant] = q
	s.ring = append(s.ring, tenant)
	return q
}

// limitsFor resolves a tenant's effective limits against the
// scheduler-wide defaults (weight 1, the shared MaxQueued bound).
func (s *scheduler) limitsFor(tenant string) TenantLimits {
	d := TenantLimits{Weight: 1, MaxQueued: s.maxQueued}
	if s.limits != nil {
		return s.limits(tenant).withDefaults(d)
	}
	return d
}

// queueDepth reports the pending-queue length across all tenants.
func (s *scheduler) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingN
}

// tenantQueueDepths snapshots each known tenant's pending depth — the
// scrape-time source of the per-tenant queue-depth gauge.
func (s *scheduler) tenantQueueDepths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.ring))
	for _, name := range s.ring {
		out[name] = len(s.tenants[name].pending)
	}
	return out
}

// activeLeases reports the jobs currently out on a lease.
func (s *scheduler) activeLeases() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// submit enqueues a request and returns the new job's ID. The
// submitted event is journaled (and fsynced) before the ID is handed
// back, so an acknowledged submission survives a crash. rid is the
// originating request ID ("" for in-process embedders), journaled so an
// operator can walk from an access-log line to the durable record of
// what it caused.
func (s *scheduler) submit(req SubmitRequest, now time.Time, rid string) (string, error) {
	tenant := normalizeTenant(req.Tenant)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrShuttingDown
	}
	tq := s.tq(tenant)
	if tq.maxQueued > 0 && len(tq.pending) >= tq.maxQueued {
		s.met.tenantRejections.With(tenant, rejectQueueFull).Inc()
		s.mu.Unlock()
		return "", fmt.Errorf("%w (tenant %q has %d jobs pending, max %d)",
			ErrQueueFull, tenant, len(tq.pending), tq.maxQueued)
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		tenant:    tenant,
		req:       req,
		state:     StateQueued,
		submitted: now,
		queuedAt:  now,
	}
	if err := s.record(journalEvent{Kind: evSubmitted, Job: j.id, Time: now, Req: &j.req, RID: rid, Tenant: tenant, Priority: req.Priority}); err != nil {
		s.nextID--
		s.mu.Unlock()
		return "", err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	tq.push(j)
	s.pendingN++
	s.countAdd(StateQueued, 1)
	s.met.jobsSubmitted.Inc()
	s.met.tenantAdmissions.With(tenant).Inc()
	s.publishLocked(j, evTypeState, now)
	s.mu.Unlock()
	s.poke()
	return j.id, nil
}

// restore inserts journal-replayed jobs: terminal ones become
// servable records, non-terminal ones re-enter the pending queue under
// their original IDs. Jobs that were leased to a remote worker at
// crash time come back leased with a fresh grace TTL — a surviving
// worker re-attaches via its next heartbeat or complete, and a dead
// one's lease expires into a requeue. nextID advances past the highest
// replayed job number so new submissions never collide.
func (s *scheduler) restore(jobs []*job, maxID int) {
	now := time.Now()
	s.mu.Lock()
	for _, j := range jobs {
		if _, dup := s.jobs[j.id]; dup {
			continue
		}
		if j.tenant == "" {
			// Pre-tenancy journal events replay without a tenant; they
			// belong to the default tenant, same as legacy live submits.
			j.tenant = normalizeTenant(j.req.Tenant)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.countAdd(j.state, 1)
		switch {
		case j.state == StateLeased:
			j.leaseTTL = s.leaseTTL
			j.leaseExpiry = now.Add(s.leaseTTL)
			j.lastBeat = now
			s.leases[j.id] = j
			s.tq(j.tenant).inflight++
		case !j.state.Terminal():
			j.queuedAt = now
			s.tq(j.tenant).push(j)
			s.pendingN++
		}
		// Seed the restored job's event stream with its current state so
		// an SSE subscriber on a replayed job gets an immediate answer
		// (including the terminal summary) instead of silence.
		s.publishLocked(j, evTypeState, now)
	}
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()
}

// dequeueLocked is the deficit-round-robin arbiter every grant pulls
// through; callers hold s.mu. Each tenant is visited in ring order; an
// eligible tenant with no credit is granted its weight in job-slots and
// serves its queue head, one job per call, until the credit runs out —
// so over contended slots tenants are served proportionally to their
// weights, and a tenant at its running-concurrency cap (or with an
// empty queue) is skipped with its credit reset, never banking
// bandwidth it could not use. Returns nil when no tenant can hand out
// work.
func (s *scheduler) dequeueLocked() *job {
	n := len(s.ring)
	for scanned := 0; scanned < n; scanned++ {
		tq := s.tenants[s.ring[s.ringCur]]
		if !tq.eligible() {
			tq.deficit = 0
			s.ringCur = (s.ringCur + 1) % n
			continue
		}
		if tq.deficit < 1 {
			tq.deficit += tq.weight
		}
		j := tq.pending[0]
		tq.pending = tq.pending[1:]
		s.pendingN--
		tq.deficit--
		if len(tq.pending) == 0 {
			tq.deficit = 0 // no banking credit across idle periods
		}
		if tq.deficit < 1 || !tq.eligible() {
			s.ringCur = (s.ringCur + 1) % n
		}
		return j
	}
	return nil
}

// lease hands the next runnable job to a worker under a TTL lease,
// journaling the handoff before it is applied or acknowledged. A nil
// job means no work is available (empty queue, drain, or shutdown). A
// worker-requested ttl of 0 takes the scheduler default; explicit
// values are clamped to [minLeaseTTL, maxLeaseTTL], with the lower
// clamp relaxed to the configured default when that is smaller.
func (s *scheduler) lease(workerID string, ttl time.Duration, now time.Time) (*job, error) {
	if workerID == "" {
		return nil, fmt.Errorf("service: lease requires a worker id")
	}
	if ttl <= 0 {
		ttl = s.leaseTTL
	} else {
		lo := minLeaseTTL
		if s.leaseTTL < lo {
			lo = s.leaseTTL
		}
		if ttl < lo {
			ttl = lo
		}
		if ttl > maxLeaseTTL {
			ttl = maxLeaseTTL
		}
	}
	// Mint before taking s.mu: the random read must not stretch the
	// critical section idle workers poll through.
	token, err := newLeaseToken()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil
	}
	for {
		j := s.dequeueLocked()
		if j == nil {
			return nil, nil
		}
		j.mu.Lock()
		if j.state != StateQueued {
			// Canceled while queued: cancels eagerly leave the queue, but
			// may overlap a concurrent dequeue. Skip the tombstone.
			j.mu.Unlock()
			continue
		}
		if err := s.record(journalEvent{Kind: evLeased, Job: j.id, Time: now, Worker: workerID, Token: token}); err != nil {
			// Never granted: the job goes back to its queue head exactly
			// as it was.
			j.mu.Unlock()
			s.tenants[j.tenant].pushFront(j)
			s.pendingN++
			return nil, err
		}
		s.countMove(StateQueued, StateLeased)
		j.state = StateLeased
		j.leaseWorker = workerID
		j.leaseToken = token
		j.leaseTTL = ttl
		j.leaseExpiry = now.Add(ttl)
		j.lastBeat = now
		j.started = now
		s.publishLocked(j, evTypeState, now)
		j.mu.Unlock()
		s.leases[j.id] = j
		s.tenants[j.tenant].inflight++
		s.met.leaseGrants.Inc()
		return j, nil
	}
}

// newLeaseToken mints the per-lease secret a worker must present on
// heartbeat/complete. Worker IDs are published in job listings, so
// possession of the ID alone must not be able to complete (and thereby
// poison the shared cache of) someone else's lease.
func newLeaseToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: minting lease token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// heartbeat extends a worker's lease and records the stage/progress
// its run observed. ErrLeaseLost tells the worker to abandon the run.
func (s *scheduler) heartbeat(workerID, token, jobID, stage string, progress float64, now time.Time) (time.Time, error) {
	j, ok := s.get(jobID)
	if !ok {
		return time.Time{}, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateLeased || j.leaseWorker != workerID || j.leaseToken != token {
		return time.Time{}, fmt.Errorf("%w: job %s is %s", ErrLeaseLost, jobID, j.state)
	}
	j.leaseExpiry = now.Add(j.leaseTTL)
	j.lastBeat = now
	if stage != "" {
		j.stage = stage
	}
	if progress > j.progress {
		j.progress = progress
	}
	s.met.leaseHeartbeats.Inc()
	s.publishLocked(j, evTypeProgress, now)
	return j.leaseExpiry, nil
}

// complete finalizes a leased job with the outcome its holder posted
// back, journaling the terminal event. full is the in-memory campaign
// result an in-process holder hands over (nil from remote workers). A
// holder whose lease was lost in the meantime gets ErrLeaseLost and
// must discard the result — the job is owned by the queue (or another
// worker) again.
func (s *scheduler) complete(workerID, token, jobID string, state JobState, errMsg string, sum *ResultSummary, full *campaign.Result, now time.Time) error {
	if !state.Terminal() {
		return fmt.Errorf("service: complete with non-terminal state %q", state)
	}
	j, err := s.liveJob(jobID)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.state != StateLeased || j.leaseWorker != workerID || j.leaseToken != token {
		st := j.state
		j.mu.Unlock()
		return fmt.Errorf("%w: job %s is %s", ErrLeaseLost, jobID, st)
	}
	ev := journalEvent{Job: jobID, Time: now, Worker: workerID}
	switch state {
	case StateDone:
		ev.Kind = evDone
		ev.Summary = sum
	case StateFailed:
		ev.Kind = evFailed
		ev.Error = errMsg
	case StateCanceled:
		ev.Kind = evCanceled
	}
	// Journal before applying, while still holding j.mu: the 200 this
	// acks promises the outcome survives a restart, so a failed append
	// (journal closed by a racing Shutdown) must refuse the complete —
	// the worker retries against the restarted coordinator, which still
	// shows the job leased. Acking first and journaling best-effort
	// would let the result evaporate across the restart.
	if err := s.record(ev); err != nil {
		j.mu.Unlock()
		return ErrShuttingDown
	}
	s.countMove(StateLeased, state)
	j.state = state
	j.finished = now
	switch state {
	case StateDone:
		j.progress = 1
		if sum != nil {
			j.result = &jobResult{full: full, summary: *sum}
		}
	case StateFailed:
		j.err = errMsg
	}
	var dur time.Duration
	if !j.started.IsZero() && state != StateCanceled {
		dur = now.Sub(j.started)
	}
	s.markTerminal(state)
	s.publishLocked(j, evTypeState, now)
	j.mu.Unlock()
	s.mu.Lock()
	s.unleaseLocked(j)
	s.mu.Unlock()
	if dur > 0 {
		s.recordDuration(dur)
	}
	s.pruneTerminal()
	return nil
}

// unleaseLocked drops a job from the lease table and its tenant's
// in-flight tally; callers hold s.mu.
func (s *scheduler) unleaseLocked(j *job) {
	delete(s.leases, j.id)
	if tq := s.tenants[j.tenant]; tq != nil {
		tq.inflight--
	}
}

// requeueLocked revokes a lease and returns the job to the front of
// its owner's queue (it predates everything pending there) under its
// original ID — Seed and LibOffset ride along in the retained request,
// so the rerun is byte-identical. The holder finds out through
// ErrLeaseLost. Callers hold s.mu and j.mu, have checked the job is
// leased, and journal the requeue so a restart cannot revive the lease.
func (s *scheduler) requeueLocked(j *job, now time.Time) {
	s.countMove(StateLeased, StateQueued)
	j.state = StateQueued
	j.leaseWorker = ""
	j.leaseToken = ""
	j.started = time.Time{}
	j.lastBeat = time.Time{}
	j.stage = ""
	j.progress = 0
	s.publishLocked(j, evTypeState, now)
	j.queuedAt = now
	s.unleaseLocked(j)
	s.tenants[j.tenant].pushFront(j)
	s.pendingN++
	s.met.leaseRequeues.Inc()
}

// leaseLoop is the expiry watchdog: leases whose worker stopped
// heartbeating are revoked and their jobs re-enqueued.
func (s *scheduler) leaseLoop() {
	defer s.wg.Done()
	tick := s.leaseTTL / 4
	if tick < 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			now := time.Now()
			s.expireLeases(now)
			s.maybePreempt(now)
		case <-s.quit:
			return
		}
	}
}

// expireLeases requeues every leased job whose lease has lapsed.
func (s *scheduler) expireLeases(now time.Time) {
	s.mu.Lock()
	if len(s.leases) == 0 || s.closed {
		s.mu.Unlock()
		return
	}
	// s.leases is a map, and leases often lapse together (a restart
	// re-arms every restored lease with the same TTL): walk by job
	// number, highest first, so requeueLocked's push-to-front leaves
	// each tenant's queue head in submission order.
	leased := make([]*job, 0, len(s.leases))
	for _, j := range s.leases {
		leased = append(leased, j)
	}
	sort.Slice(leased, func(i, k int) bool { return jobIDAfter(leased[i].id, leased[k].id) })
	var evs []journalEvent
	for _, j := range leased {
		j.mu.Lock()
		if j.state == StateLeased && now.After(j.leaseExpiry) {
			s.requeueLocked(j, now)
			evs = append(evs, journalEvent{Kind: evRequeued, Job: j.id, Time: now})
		}
		j.mu.Unlock()
	}
	// One batched write+fsync for the whole sweep: a mass expiry (every
	// restored lease lapsing on the same tick) must not hold s.mu for
	// one fsync per dead worker.
	_ = s.record(evs...)
	s.met.leaseExpiries.Add(float64(len(evs)))
	s.mu.Unlock()
	for range evs {
		s.poke()
	}
}

// maybePreempt is the preemption arbiter, run on the lease watchdog's
// tick: when a tenant is starved — its queue head carries Priority > 0,
// has waited past preemptAfter, and the tenant's in-flight work is
// below its weighted fair share — the most over-share tenant's
// youngest leased job is revoked and requeued at the front of its
// owner's queue, exactly like a lease expiry. In-process holders'
// leases are as preemptible as remote ones.
func (s *scheduler) maybePreempt(now time.Time) {
	if s.preemptAfter <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.leases) == 0 || s.pendingN == 0 {
		return
	}
	slots := s.slotsLocked()
	// Fair shares are computed over tenants with demand (pending or
	// in-flight work); idle tenants do not dilute anyone's share.
	totalW := s.demandWeightLocked()
	if totalW == 0 {
		return
	}
	var starved *tenantQueue
	starvedIdx := -1
	for i, name := range s.ring {
		tq := s.tenants[name]
		if len(tq.pending) == 0 {
			continue
		}
		head := tq.pending[0]
		if head.req.Priority <= 0 || now.Sub(head.queuedAt) < s.preemptAfter {
			continue
		}
		if tq.maxRunning > 0 && tq.inflight >= tq.maxRunning {
			continue // its own concurrency cap, not another tenant, is the bottleneck
		}
		if tq.inflight*totalW >= slots*tq.weight {
			continue // already at or above fair share
		}
		if starved == nil || head.req.Priority > starved.pending[0].req.Priority {
			starved, starvedIdx = tq, i
		}
	}
	if starved == nil {
		return
	}
	// Victim: the tenant furthest above its weighted fair share that
	// actually holds a lease. Ring order keeps tie-breaking stable.
	var victim *tenantQueue
	bestOver := 0
	for _, name := range s.ring {
		tq := s.tenants[name]
		if tq == starved || tq.inflight == 0 {
			continue
		}
		over := tq.inflight*totalW - slots*tq.weight
		if over <= 0 || (victim != nil && over <= bestOver) {
			continue
		}
		for _, l := range s.leases {
			if l.tenant == tq.name {
				victim, bestOver = tq, over
				break
			}
		}
	}
	if victim == nil {
		return
	}
	// The youngest lease loses: it has the least progress to discard.
	var prey *job
	var preyStart time.Time
	for _, l := range s.leases {
		if l.tenant != victim.name {
			continue
		}
		l.mu.Lock()
		st, leased := l.started, l.state == StateLeased
		l.mu.Unlock()
		if !leased {
			continue
		}
		if prey == nil || st.After(preyStart) ||
			(st.Equal(preyStart) && jobIDAfter(l.id, prey.id)) {
			prey, preyStart = l, st
		}
	}
	if prey == nil {
		return
	}
	prey.mu.Lock()
	if prey.state != StateLeased { // raced a completion; try again next tick
		prey.mu.Unlock()
		return
	}
	s.requeueLocked(prey, now)
	prey.mu.Unlock()
	// Point the arbiter at the starved tenant with enough credit for
	// one grab, so the freed slot goes to the job that earned it.
	s.ringCur = starvedIdx
	if starved.deficit < 1 {
		starved.deficit = 1
	}
	s.met.tenantPreemptions.With(victim.name).Inc()
	_ = s.record(journalEvent{Kind: evRequeued, Job: prey.id, Time: now})
	s.poke()
}

// slotsLocked counts execution slots: every in-process holder once
// (idle or leasing) plus each remote lease. Callers hold s.mu, which
// guards every leaseWorker write.
func (s *scheduler) slotsLocked() int {
	if s.workerSlots == 0 {
		return len(s.leases) // pure coordinator: every lease is remote
	}
	n := s.workerSlots
	for _, j := range s.leases {
		if !strings.HasPrefix(j.leaseWorker, localWorkerPrefix) {
			n++
		}
	}
	return n
}

// demandWeightLocked sums the weights of tenants with pending or
// in-flight work; callers hold s.mu.
func (s *scheduler) demandWeightLocked() int {
	totalW := 0
	for _, name := range s.ring {
		tq := s.tenants[name]
		if len(tq.pending) > 0 || tq.inflight > 0 {
			totalW += tq.weight
		}
	}
	return totalW
}

// recordDuration feeds one finished run into the Retry-After window.
func (s *scheduler) recordDuration(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.durRing[s.durIdx] = d
	s.durIdx = (s.durIdx + 1) % durSamples
	if s.durN < durSamples {
		s.durN++
	}
	s.mu.Unlock()
}

// retryAfterSeconds derives the global 429 Retry-After hint from the
// current backlog: total queue depth × recent mean job duration,
// spread over the available execution slots (in-process holders plus
// active remote leases), clamped to [1s, 60s]. With no finished runs
// yet the mean defaults to 5s.
func (s *scheduler) retryAfterSeconds() int {
	return s.retryAfterSecondsFor("")
}

// retryAfterSecondsFor is the tenant-derived Retry-After: the named
// tenant's own backlog against its weighted share of the execution
// slots, so a rejected flood tenant is told to wait for its queue, not
// everyone's. The empty tenant is the global estimate (health probe,
// Retry-After gauge).
func (s *scheduler) retryAfterSecondsFor(tenant string) int {
	s.mu.Lock()
	depth := s.pendingN
	slotShare := float64(s.slotsLocked())
	if tenant != "" {
		tq := s.tenants[tenant]
		if tq == nil {
			depth = 0
		} else {
			depth = len(tq.pending)
			if totalW := s.demandWeightLocked(); totalW > tq.weight {
				slotShare = slotShare * float64(tq.weight) / float64(totalW)
			}
		}
	}
	var sum time.Duration
	for i := 0; i < s.durN; i++ {
		sum += s.durRing[i]
	}
	n := s.durN
	s.mu.Unlock()
	mean := 5 * time.Second
	if n > 0 {
		mean = sum / time.Duration(n)
	}
	if slotShare < 1 {
		slotShare = 1
	}
	wait := time.Duration(float64(depth) * float64(mean) / slotShare)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// get returns the job by ID.
func (s *scheduler) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// liveJob is get for the calls that end a job (complete, cancel). After
// shutdown the journal is closed: an outcome acked now could not be
// recorded and the restarted coordinator would revive the job. Refuse
// with ErrShuttingDown (HTTP 503, not a malformed-request 400); the
// caller retries against the next instance. The window exists because
// the listener drains after the service.
func (s *scheduler) liveJob(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShuttingDown
	}
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// cancelJob cancels a queued or leased job, journaling rid (the
// originating request ID, "" for in-process callers) with the event.
// Canceling a terminal job is a no-op; unknown IDs return
// ErrUnknownJob.
func (s *scheduler) cancelJob(id, rid string) (JobSnapshot, error) {
	j, err := s.liveJob(id)
	if err != nil {
		return JobSnapshot{}, err
	}
	j.mu.Lock()
	from := j.state
	if from == StateQueued || from == StateLeased {
		// Queued: never started, mark terminal immediately; lease will
		// skip it. Leased: the holder is not signaled directly — mark
		// terminal now and let its next heartbeat or complete come back
		// ErrLeaseLost, at which point it abandons the run. Either way,
		// journal BEFORE applying, still under j.mu: the 200 this acks
		// promises the cancel survives a restart, so a failed append
		// (journal closed by a racing Shutdown) must refuse the cancel
		// rather than ack it and let the restarted coordinator revive
		// the job.
		now := time.Now()
		if err := s.record(journalEvent{Kind: evCanceled, Job: j.id, Time: now, RID: rid}); err != nil {
			j.mu.Unlock()
			return JobSnapshot{}, ErrShuttingDown
		}
		s.countMove(from, StateCanceled)
		j.state = StateCanceled
		j.leaseToken = ""
		j.finished = now
		s.markTerminal(StateCanceled)
		s.publishLocked(j, evTypeState, now)
	}
	// Snapshot under the same lock: a caller re-reading through the job
	// table could race a concurrent completion's prune and find nothing
	// — or worse, fabricate a state the journal contradicts.
	snap := j.snapshotLocked()
	j.mu.Unlock()
	switch from {
	case StateLeased:
		s.mu.Lock()
		s.unleaseLocked(j)
		s.mu.Unlock()
	case StateQueued:
		// Drop the tombstone from its tenant's pending queue eagerly so
		// it stops holding a MaxQueued slot and stops inflating the
		// queue-depth gauge and the derived Retry-After (lease would only
		// skip it once a worker polls, spuriously 429ing the tenant's
		// new submissions until then).
		s.mu.Lock()
		if tq := s.tenants[j.tenant]; tq != nil && tq.remove(j) {
			s.pendingN--
		}
		s.mu.Unlock()
	default:
		return snap, nil
	}
	// The cancel was terminal: enforce the record bound now rather than
	// at the next completion.
	s.pruneTerminal()
	return snap, nil
}

// pruneTerminal drops the oldest terminal job records beyond
// maxRecords from the job table, the order slice and therefore every
// listing — the fix for the unbounded growth of completed-job state in
// a long-lived service. Queued and leased jobs are never pruned. With
// a journal configured, pruned history remains on disk.
func (s *scheduler) pruneTerminal() {
	if s.maxRecords <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var terminal []string // IDs of terminal jobs, oldest first
	states := map[string]JobState{}
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		done := j.state.Terminal()
		if done {
			terminal = append(terminal, id)
			states[id] = j.state
		}
		j.mu.Unlock()
	}
	drop := len(terminal) - s.maxRecords
	if drop <= 0 {
		return
	}
	doomed := make(map[string]bool, drop)
	for _, id := range terminal[:drop] {
		doomed[id] = true
		delete(s.jobs, id)
		// Pruned records leave the table, so they leave the tallies too.
		s.countAdd(states[id], -1)
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if !doomed[id] {
			kept = append(kept, id)
		}
	}
	s.order = kept
	// End the pruned jobs' event streams so their subscribers (and ring
	// memory) go away with the records.
	s.bus.drop(terminal[:drop])
}

// retainedIDs snapshots the IDs currently in the job table — what a
// restart should still list. Journal compaction drops closed jobs
// outside this set, so the prune horizon (MaxJobRecords) holds on
// disk as well as in memory.
func (s *scheduler) retainedIDs() map[string]struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]struct{}, len(s.jobs))
	for id := range s.jobs {
		out[id] = struct{}{}
	}
	return out
}

// list snapshots every job in submission order.
func (s *scheduler) list() []JobSnapshot { return s.listFiltered(JobQuery{}) }

// listFiltered snapshots jobs in submission order under the query's
// bounds. Only jobs that pass the cursor are locked, and the walk
// stops as soon as limit snapshots are collected, so a bounded page
// over a large job table stays cheap. Always returns a non-nil slice
// (the HTTP listing guarantees [] over null).
func (s *scheduler) listFiltered(q JobQuery) []JobSnapshot {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		// IDs are handed out in submission order, so the cursor is a
		// comparison — and keeps working even when the cursor job
		// itself has been pruned.
		if q.After != "" && !jobIDAfter(id, q.After) {
			continue
		}
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	capHint := len(jobs)
	if q.Limit > 0 && q.Limit < capHint {
		capHint = q.Limit
	}
	out := make([]JobSnapshot, 0, capHint)
	for _, j := range jobs {
		j.mu.Lock()
		snap := j.snapshotLocked()
		j.mu.Unlock()
		if q.State != "" && snap.State != q.State {
			continue
		}
		if q.Tenant != "" && snap.Tenant != q.Tenant {
			continue
		}
		out = append(out, snap)
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out
}

// jobIDAfter reports whether job ID a sorts after the cursor b.
// Both-numeric IDs ("job-%06d") compare by job number, so the cursor
// stays correct past the six-digit zero padding (job-1000000 sorts
// after job-999999, not before); anything unparseable falls back to a
// string comparison.
func jobIDAfter(a, b string) bool {
	na, errA := strconv.Atoi(strings.TrimPrefix(a, "job-"))
	nb, errB := strconv.Atoi(strings.TrimPrefix(b, "job-"))
	if errA == nil && errB == nil {
		return na > nb
	}
	return a > b
}

// counts tallies jobs by state for the health endpoint, served from
// the incrementally maintained counters — O(states), no job locks.
func (s *scheduler) counts() map[JobState]int {
	out := map[JobState]int{}
	for i, st := range countedStates {
		if n := s.stateN[i].Load(); n > 0 {
			out[st] = int(n)
		}
	}
	return out
}

// isDraining reports whether a shutdown/drain has begun.
func (s *scheduler) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// shutdown gracefully drains the scheduler: stop accepting submissions
// and handing out or completing leases, then wait for the watchdog and
// the in-process holders (which abort their runs on quit). No job
// changes state: queued jobs stay queued and leases stay out, in memory
// and in the journal alike, so a service reopened on the same state
// dir re-enqueues the former and re-adopts (or expires) the latter.
func (s *scheduler) shutdown() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
	}
	s.mu.Unlock()
	s.wg.Wait()
	// Wake every SSE subscriber after the holders have quiesced: their
	// handlers return, so the HTTP server's graceful drain is never held
	// open by an idle event stream.
	s.bus.shutdown()
}
