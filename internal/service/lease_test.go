package service

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// memJournal collects journal events in memory for scheduler-level
// lease tests. Setting fail simulates a journal closed by a racing
// Shutdown: record errors and nothing is stored.
type memJournal struct {
	mu     sync.Mutex
	events []journalEvent
	fail   bool
}

func (m *memJournal) record(evs ...journalEvent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail {
		return errors.New("journal is closed")
	}
	m.events = append(m.events, evs...)
	return nil
}

func (m *memJournal) setFail(v bool) {
	m.mu.Lock()
	m.fail = v
	m.mu.Unlock()
}

func (m *memJournal) kinds(job string) []eventKind {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []eventKind
	for _, ev := range m.events {
		if ev.Job == job {
			out = append(out, ev.Kind)
		}
	}
	return out
}

// remoteScheduler builds a bare scheduler: nothing executes, jobs move
// only as the test drives the lease protocol.
func remoteScheduler(ttl time.Duration, jl *memJournal) *scheduler {
	cfg := schedConfig{leaseTTL: ttl}
	if jl != nil {
		cfg.record = jl.record
	}
	return newScheduler(cfg)
}

func stateOf(t *testing.T, s *scheduler, id string) JobState {
	t.Helper()
	j, ok := s.get(id)
	if !ok {
		t.Fatalf("job %s lost", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// tokenOf reads a job's current lease token — what the grant carries
// to the holder.
func tokenOf(t *testing.T, s *scheduler, id string) string {
	t.Helper()
	j, ok := s.get(id)
	if !ok {
		t.Fatalf("job %s lost", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.leaseToken
}

// TestLeaseLifecycle drives the happy path at the scheduler level:
// queued → leased (journaled with the holder) → heartbeat-extended →
// completed remotely with the posted summary served and journaled.
func TestLeaseLifecycle(t *testing.T) {
	jl := &memJournal{}
	s := remoteScheduler(time.Minute, jl)
	defer s.shutdown()

	id, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	// Nobody has leased it: the job must still be queued.
	if st := stateOf(t, s, id); st != StateQueued {
		t.Fatalf("state before lease = %s", st)
	}

	now := time.Now()
	j, err := s.lease("w1", 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if j == nil || j.id != id {
		t.Fatalf("lease returned %+v, want job %s", j, id)
	}
	if st := stateOf(t, s, id); st != StateLeased {
		t.Fatalf("state after lease = %s", st)
	}
	j.mu.Lock()
	firstExpiry := j.leaseExpiry
	worker := j.leaseWorker
	tok := j.leaseToken
	j.mu.Unlock()
	if worker != "w1" || !firstExpiry.After(now) || tok == "" {
		t.Fatalf("lease bookkeeping: worker=%q token=%q expiry=%v", worker, tok, firstExpiry)
	}
	// An empty queue leases nothing.
	if extra, err := s.lease("w2", 0, time.Now()); err != nil || extra != nil {
		t.Fatalf("second lease = %v, %v; want nil, nil", extra, err)
	}

	// Heartbeats extend the lease and carry remote progress; the wrong
	// worker — or the right worker without the lease token — is
	// rejected (worker IDs are public in listings, tokens are not).
	exp, err := s.heartbeat("w1", tok, id, "s1-dock", 0.4, now.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !exp.After(firstExpiry) {
		t.Fatalf("heartbeat did not extend the lease: %v !> %v", exp, firstExpiry)
	}
	if _, err := s.heartbeat("w2", tok, id, "", 0, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("foreign heartbeat error = %v, want ErrLeaseLost", err)
	}
	if _, err := s.heartbeat("w1", "forged-token", id, "", 0, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("forged-token heartbeat error = %v, want ErrLeaseLost", err)
	}
	if _, err := s.heartbeat("w1", tok, "job-999999", "", 0, time.Now()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown-job heartbeat error = %v, want ErrUnknownJob", err)
	}
	snap := func() JobSnapshot {
		j, _ := s.get(id)
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.snapshotLocked()
	}()
	if snap.Stage != "s1-dock" || snap.Progress != 0.4 || snap.Worker != "w1" {
		t.Fatalf("remote progress not visible: %+v", snap)
	}

	// The wrong worker cannot complete; the holder can, and the summary
	// is served.
	sum := ResultSummary{ScientificYield: 0.75}
	if err := s.complete("w2", tok, id, StateDone, "", &sum, nil, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("foreign complete error = %v, want ErrLeaseLost", err)
	}
	if err := s.complete("w1", "forged-token", id, StateDone, "", &sum, nil, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("forged-token complete error = %v, want ErrLeaseLost", err)
	}
	if err := s.complete("w1", tok, id, StateDone, "", &sum, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	j2, _ := s.get(id)
	j2.mu.Lock()
	st, res := j2.state, j2.result
	j2.mu.Unlock()
	if st != StateDone || res == nil || res.summary.ScientificYield != 0.75 {
		t.Fatalf("completed job: state=%s result=%+v", st, res)
	}
	if got, want := jl.kinds(id), []eventKind{evSubmitted, evLeased, evDone}; !equalKinds(got, want) {
		t.Fatalf("journal = %v, want %v", got, want)
	}
	// A completed job's lease is gone: late heartbeats bounce.
	if _, err := s.heartbeat("w1", tok, id, "", 0, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("post-complete heartbeat error = %v, want ErrLeaseLost", err)
	}
}

func equalKinds(a, b []eventKind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLeaseExpiryRequeues: a worker that stops heartbeating loses the
// job, which re-enters the queue under its original ID (requeue
// journaled), and the dead worker's late complete is rejected while a
// second worker's succeeds.
func TestLeaseExpiryRequeues(t *testing.T) {
	jl := &memJournal{}
	s := remoteScheduler(50*time.Millisecond, jl)
	defer s.shutdown()

	req := SubmitRequest{Target: "PLPro", Seed: 42, LibOffset: 7}
	id, err := s.submit(req, time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.lease("w-dead", 0, time.Now()); err != nil {
		t.Fatal(err)
	}
	deadTok := tokenOf(t, s, id)
	waitFor(t, "lease to expire and requeue", func() bool {
		return stateOf(t, s, id) == StateQueued
	})
	if got, want := jl.kinds(id), []eventKind{evSubmitted, evLeased, evRequeued}; !equalKinds(got, want) {
		t.Fatalf("journal = %v, want %v", got, want)
	}
	if _, err := s.heartbeat("w-dead", deadTok, id, "", 0, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead worker heartbeat error = %v, want ErrLeaseLost", err)
	}
	if err := s.complete("w-dead", deadTok, id, StateDone, "", &ResultSummary{}, nil, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead worker complete error = %v, want ErrLeaseLost", err)
	}

	// The requeued job keeps its original request — Seed and LibOffset
	// are what make the rerun byte-identical.
	j2, err := s.lease("w2", time.Minute, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if j2 == nil || j2.id != id {
		t.Fatalf("re-lease = %+v, want job %s", j2, id)
	}
	if j2.req.Seed != 42 || j2.req.LibOffset != 7 {
		t.Fatalf("requeued request mutated: %+v", j2.req)
	}
	if err := s.complete("w2", tokenOf(t, s, id), id, StateDone, "", &ResultSummary{ScientificYield: 1}, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(t, s, id); st != StateDone {
		t.Fatalf("final state = %s", st)
	}
}

// TestExpiryRequeueOrder: leases that lapse in the same watchdog sweep
// (the common shape after a coordinator restart re-arms every restored
// lease with the same TTL) re-enter the queue in submission order,
// ahead of anything submitted later — regardless of lease-map
// iteration order.
func TestExpiryRequeueOrder(t *testing.T) {
	s := remoteScheduler(time.Hour, nil)
	defer s.shutdown()
	now := time.Now()
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := s.submit(SubmitRequest{Target: "PLPro"}, now, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.lease("w-dead", time.Second, now); err != nil {
			t.Fatal(err)
		}
	}
	s.expireLeases(now.Add(2 * time.Second))
	s.mu.Lock()
	var got []string
	for _, j := range s.tq(DefaultTenant).pending {
		got = append(got, j.id)
	}
	s.mu.Unlock()
	if len(got) != len(ids) {
		t.Fatalf("pending = %v, want all of %v", got, ids)
	}
	for i, id := range ids {
		if got[i] != id {
			t.Fatalf("pending order = %v, want %v", got, ids)
		}
	}
}

// TestCancelLeasedJob: a user cancel of a leased job is terminal
// immediately (journaled), and the remote worker discovers it through
// ErrLeaseLost on its next heartbeat.
func TestCancelLeasedJob(t *testing.T) {
	jl := &memJournal{}
	s := remoteScheduler(time.Minute, jl)
	defer s.shutdown()
	id, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if _, err := s.lease("w1", 0, time.Now()); err != nil {
		t.Fatal(err)
	}
	tok := tokenOf(t, s, id)
	if _, err := s.cancelJob(id, ""); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st := stateOf(t, s, id); st != StateCanceled {
		t.Fatalf("state after cancel = %s", st)
	}
	if _, err := s.heartbeat("w1", tok, id, "", 0, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("heartbeat after cancel = %v, want ErrLeaseLost", err)
	}
	if got, want := jl.kinds(id), []eventKind{evSubmitted, evLeased, evCanceled}; !equalKinds(got, want) {
		t.Fatalf("journal = %v, want %v", got, want)
	}
}

// TestCancelCompleteJournalBeforeApply: a cancel or complete whose
// terminal event cannot be journaled (the journal closed under a
// racing Shutdown) must be refused with ErrShuttingDown and leave the
// job untouched — acking first and journaling best-effort would let
// the acknowledged outcome evaporate across a restart, the
// acked-then-lost shape the 503 path exists to prevent.
func TestCancelCompleteJournalBeforeApply(t *testing.T) {
	jl := &memJournal{}
	s := remoteScheduler(time.Hour, jl)
	defer s.shutdown()
	id, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if _, err := s.lease("w1", 0, time.Now()); err != nil {
		t.Fatal(err)
	}
	tok := tokenOf(t, s, id)

	jl.setFail(true)
	if _, err := s.cancelJob(id, ""); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("cancel with dead journal = %v, want ErrShuttingDown", err)
	}
	if err := s.complete("w1", tok, id, StateDone, "", &ResultSummary{}, nil, time.Now()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("complete with dead journal = %v, want ErrShuttingDown", err)
	}
	// The job is exactly as it was: still leased to w1 under the same
	// token, no terminal event journaled, counters unmoved.
	if st := stateOf(t, s, id); st != StateLeased {
		t.Fatalf("state after refused transitions = %s, want leased", st)
	}
	if got, want := jl.kinds(id), []eventKind{evSubmitted, evLeased}; !equalKinds(got, want) {
		t.Fatalf("journal = %v, want %v", got, want)
	}
	if got := s.counts(); got[StateLeased] != 1 || got[StateDone] != 0 || got[StateCanceled] != 0 {
		t.Fatalf("counts after refusals = %v", got)
	}

	// Journal back: the same complete lands.
	jl.setFail(false)
	if err := s.complete("w1", tok, id, StateDone, "", &ResultSummary{ScientificYield: 1}, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	if got, want := jl.kinds(id), []eventKind{evSubmitted, evLeased, evDone}; !equalKinds(got, want) {
		t.Fatalf("journal = %v, want %v", got, want)
	}

	// After shutdown both are refused up front, same sentinel.
	s.shutdown()
	if _, err := s.cancelJob(id, ""); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("cancel after shutdown = %v, want ErrShuttingDown", err)
	}
	if err := s.complete("w1", tok, id, StateDone, "", &ResultSummary{}, nil, time.Now()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("complete after shutdown = %v, want ErrShuttingDown", err)
	}
}

// TestSchedulerCounts pins the incrementally maintained per-state
// tallies across submit, lease, expiry, completion and pruning — the
// fix for O(jobs × mutex) health probes.
func TestSchedulerCounts(t *testing.T) {
	s := remoteScheduler(time.Hour, nil)
	s.maxRecords = 1
	defer s.shutdown()

	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	check := func(what string, want map[JobState]int) {
		t.Helper()
		got := s.counts()
		if len(got) != len(want) {
			t.Fatalf("%s: counts = %v, want %v", what, got, want)
		}
		for st, n := range want {
			if got[st] != n {
				t.Fatalf("%s: counts = %v, want %v", what, got, want)
			}
		}
	}
	check("after submits", map[JobState]int{StateQueued: 3})

	if _, err := s.lease("w1", 0, time.Now()); err != nil {
		t.Fatal(err)
	}
	check("after lease", map[JobState]int{StateQueued: 2, StateLeased: 1})

	if err := s.complete("w1", tokenOf(t, s, ids[0]), ids[0], StateDone, "", &ResultSummary{}, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	check("after complete", map[JobState]int{StateQueued: 2, StateDone: 1})

	s.cancelJob(ids[1], "")
	// maxRecords=1: the canceled job displaces the done one from the
	// table, and the tallies must follow the table.
	check("after cancel+prune", map[JobState]int{StateQueued: 1, StateCanceled: 1})
}

// TestRetryAfterDerivation pins the 429 hint formula: queue depth ×
// recent mean duration over available slots, clamped to [1s, 60s].
func TestRetryAfterDerivation(t *testing.T) {
	// Nothing leases from a bare scheduler, so the placeholder entries
	// the test stuffs into pending stay put.
	s := remoteScheduler(time.Hour, nil)
	s.workerSlots = 2
	// stuffPending swaps placeholder jobs into the default tenant's
	// queue; pendingN is what the formula reads.
	stuffPending := func(sc *scheduler, n int) {
		sc.mu.Lock()
		tq := sc.tq(DefaultTenant)
		tq.pending = make([]*job, n)
		sc.pendingN = n
		sc.mu.Unlock()
	}
	defer func() {
		stuffPending(s, 0)
		s.shutdown()
	}()
	// Idle queue: minimum hint.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle Retry-After = %d, want 1", got)
	}
	// 6 pending × 10s mean / 2 workers = 30s.
	s.recordDuration(10 * time.Second)
	stuffPending(s, 6)
	if got := s.retryAfterSeconds(); got != 30 {
		t.Fatalf("Retry-After = %d, want 30", got)
	}
	// A huge backlog clamps at 60.
	stuffPending(s, 1000)
	if got := s.retryAfterSeconds(); got != 60 {
		t.Fatalf("clamped Retry-After = %d, want 60", got)
	}
	// No duration samples yet: the mean defaults to 5s.
	s2 := remoteScheduler(time.Hour, nil)
	defer s2.shutdown()
	stuffPending(s2, 2)
	if got := s2.retryAfterSeconds(); got != 10 {
		t.Fatalf("default-mean Retry-After = %d, want 10 (2 × 5s / 1 slot)", got)
	}
	stuffPending(s2, 0)
}

// TestReplayJournalLeases drives the reducer over lease histories: a
// job leased at crash time comes back leased with its holder (so the
// worker can re-attach), a requeued one comes back queued, and a
// remotely completed one is terminal with the worker recorded.
func TestReplayJournalLeases(t *testing.T) {
	t0 := time.Date(2026, 7, 29, 12, 0, 0, 0, time.UTC)
	req := smallReq()
	sum := ResultSummary{ScientificYield: 0.5}
	events := []journalEvent{
		{Kind: evSubmitted, Job: "job-000001", Time: t0, Req: &req},
		{Kind: evLeased, Job: "job-000001", Time: t0.Add(time.Second), Worker: "w1"},
		{Kind: evSubmitted, Job: "job-000002", Time: t0, Req: &req},
		{Kind: evLeased, Job: "job-000002", Time: t0.Add(time.Second), Worker: "w1"},
		{Kind: evRequeued, Job: "job-000002", Time: t0.Add(time.Minute)},
		{Kind: evSubmitted, Job: "job-000003", Time: t0, Req: &req},
		{Kind: evLeased, Job: "job-000003", Time: t0.Add(time.Second), Worker: "w2"},
		{Kind: evDone, Job: "job-000003", Time: t0.Add(time.Minute), Worker: "w2", Summary: &sum},
		// Held by an in-process worker at crash time: the holder died
		// with the process, so the job is queued again at once.
		{Kind: evSubmitted, Job: "job-000004", Time: t0, Req: &req},
		{Kind: evLeased, Job: "job-000004", Time: t0.Add(time.Second), Worker: localWorkerPrefix + "0", Token: "tok"},
		// Completed by an in-process worker: terminal, holder recorded.
		{Kind: evSubmitted, Job: "job-000005", Time: t0, Req: &req},
		{Kind: evLeased, Job: "job-000005", Time: t0.Add(time.Second), Worker: localWorkerPrefix + "1", Token: "tok"},
		{Kind: evDone, Job: "job-000005", Time: t0.Add(time.Minute), Worker: localWorkerPrefix + "1", Summary: &sum},
	}
	jobs, maxID := replayJournal(events, nil)
	if maxID != 5 || len(jobs) != 5 {
		t.Fatalf("replayed %d jobs, maxID %d", len(jobs), maxID)
	}
	byID := map[string]*job{}
	for _, j := range jobs {
		byID[j.id] = j
	}
	if j := byID["job-000001"]; j.state != StateLeased || j.leaseWorker != "w1" || j.started.IsZero() {
		t.Fatalf("leased-at-crash job = state=%s worker=%q", j.state, j.leaseWorker)
	}
	if j := byID["job-000002"]; j.state != StateQueued || j.leaseWorker != "" || !j.started.IsZero() {
		t.Fatalf("requeued job = state=%s worker=%q started=%v", j.state, j.leaseWorker, j.started)
	}
	if j := byID["job-000003"]; j.state != StateDone || j.leaseWorker != "w2" ||
		j.result == nil || j.result.summary.ScientificYield != 0.5 {
		t.Fatalf("remotely completed job = %+v", j)
	}
	if j := byID["job-000004"]; j.state != StateQueued || j.leaseWorker != "" || j.leaseToken != "" || !j.started.IsZero() {
		t.Fatalf("locally held job = state=%s worker=%q token=%q started=%v, want plain queued",
			j.state, j.leaseWorker, j.leaseToken, j.started)
	}
	if j := byID["job-000005"]; j.state != StateDone || j.leaseWorker != localWorkerPrefix+"1" ||
		!j.started.Equal(t0.Add(time.Second)) {
		t.Fatalf("locally completed job = state=%s worker=%q started=%v", j.state, j.leaseWorker, j.started)
	}
}

// TestLeaseSurvivesCoordinatorRestart is the durability half of the
// lease protocol, with no campaigns involved (RemoteOnly never
// executes in-process): a job leased at crash time is re-adopted by
// the reopened coordinator, where the surviving worker can complete it
// — while a job whose worker died with the coordinator expires into a
// requeue under its original ID.
func TestLeaseSurvivesCoordinatorRestart(t *testing.T) {
	dir := stateDirForTest(t)
	open := func(ttl time.Duration) *Service {
		s, err := Open(Options{RemoteOnly: true, CacheShards: 4, StateDir: dir, LeaseTTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := open(time.Minute)
	idA, err := s1.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s1.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	gA, err := s1.Lease("w-live", 0)
	if err != nil || gA == nil || gA.JobID != idA {
		t.Fatalf("lease A = %+v, %v", gA, err)
	}
	gB, err := s1.Lease("w-doomed", 0)
	if err != nil || gB == nil || gB.JobID != idB {
		t.Fatalf("lease B = %+v, %v", gB, err)
	}
	crash(s1)

	// Reopen with a short grace TTL: both jobs come back leased to
	// their original workers.
	s2 := open(400 * time.Millisecond)
	for id, worker := range map[string]string{idA: "w-live", idB: "w-doomed"} {
		snap, ok := s2.Status(id)
		if !ok || snap.State != StateLeased || snap.Worker != worker {
			t.Fatalf("job %s after replay = %+v (ok=%v), want leased by %s", id, snap, ok, worker)
		}
	}
	// The surviving worker re-attaches and completes within the grace
	// window — presenting the token from its original grant, which must
	// survive the restart via the journal; its result is accepted as if
	// the restart never happened.
	sum := ResultSummary{ScientificYield: 0.9}
	if err := s2.Complete("w-live", gA.Token, idA, WorkerResult{Summary: &sum}); err != nil {
		t.Fatalf("re-attached complete: %v", err)
	}
	got, err := s2.Result(idA)
	if err != nil || got.ScientificYield != 0.9 {
		t.Fatalf("result after re-attach = %+v, %v", got, err)
	}
	// The dead worker's lease expires into a requeue; the job is
	// leasable again under its original ID.
	waitFor(t, "doomed lease to expire", func() bool {
		snap, _ := s2.Status(idB)
		return snap.State == StateQueued
	})
	gB2, err := s2.Lease("w-replacement", time.Minute)
	if err != nil || gB2 == nil || gB2.JobID != idB {
		t.Fatalf("re-lease B = %+v, %v", gB2, err)
	}
	if gB2.Req.Seed != smallReq().Seed || gB2.Req.LibrarySize != smallReq().LibrarySize {
		t.Fatalf("request mutated across restart: %+v", gB2.Req)
	}
	if err := s2.Complete("w-replacement", gB2.Token, idB, WorkerResult{Summary: &sum}); err != nil {
		t.Fatal(err)
	}
	crash(s2)

	// Third generation: both terminal results are served straight from
	// the journal.
	s3 := open(time.Minute)
	defer s3.Shutdown()
	for _, id := range []string{idA, idB} {
		sum, err := s3.Result(id)
		if err != nil || sum.ScientificYield != 0.9 {
			t.Fatalf("replayed result %s = %+v, %v", id, sum, err)
		}
	}
	// Lease history must not confuse the listing order or states.
	var states []string
	for _, snap := range s3.Jobs() {
		states = append(states, string(snap.State))
	}
	if strings.Join(states, ",") != "done,done" {
		t.Fatalf("states after two restarts = %v", states)
	}
}

// TestRemoteOnlyNeverRunsLocally: a RemoteOnly coordinator must not
// execute campaigns in-process — jobs sit queued until leased.
func TestRemoteOnlyNeverRunsLocally(t *testing.T) {
	s := NewService(Options{RemoteOnly: true, CacheShards: 4})
	defer s.Shutdown()
	id, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	snap, _ := s.Status(id)
	if snap.State != StateQueued {
		t.Fatalf("job on a zero-worker coordinator = %s, want queued", snap.State)
	}
	if s.Cancel(id); true {
		snap, _ = s.Status(id)
		if snap.State != StateCanceled {
			t.Fatalf("cancel of queued job = %s", snap.State)
		}
	}
}
