package service

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustLease grants the next job to the named worker and checks it is
// the expected one.
func mustLease(t *testing.T, s *scheduler, worker, wantID string) *job {
	t.Helper()
	j, err := s.lease(worker, 0, time.Now())
	if err != nil || j == nil || j.id != wantID {
		t.Fatalf("lease for %s = %v, %v; want job %s", worker, j, err, wantID)
	}
	return j
}

// TestSchedulerQueueBound exercises MaxQueued at the scheduler level:
// the bound counts pending jobs only, so a leased job frees its slot,
// and the rejection reports the queue's real depth.
func TestSchedulerQueueBound(t *testing.T) {
	s := newScheduler(schedConfig{maxQueued: 1, leaseTTL: time.Hour})
	defer s.shutdown()
	id1, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	// A worker takes job 1, so the queue is empty again.
	mustLease(t, s, "w1", id1)
	if _, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), ""); err != nil {
		t.Fatalf("submit into empty queue: %v", err)
	}
	// Queue now holds 1 pending job = MaxQueued: the next must bounce.
	_, err = s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	if want := `tenant "default" has 1 jobs pending, max 1`; !strings.Contains(err.Error(), want) {
		t.Fatalf("overflow submit error = %q, want it to say %q", err, want)
	}
	// A requeue re-enters the queue regardless of the bound; the message
	// must report the depth, not echo the bound twice.
	s.expireLeases(time.Now().Add(2 * time.Hour))
	_, err = s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if want := `has 2 jobs pending, max 1`; !errors.Is(err, ErrQueueFull) || !strings.Contains(err.Error(), want) {
		t.Fatalf("over-bound submit error = %v, want ErrQueueFull saying %q", err, want)
	}
}

// TestCancelFreesQueueSlot: canceling a queued job must release its
// MaxQueued slot immediately, not when a worker eventually skips the
// tombstone.
func TestCancelFreesQueueSlot(t *testing.T) {
	s := newScheduler(schedConfig{maxQueued: 1})
	defer s.shutdown()
	idRun, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	mustLease(t, s, "w1", idRun)
	idQ, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("pre-cancel overflow error = %v, want ErrQueueFull", err)
	}
	if _, err := s.cancelJob(idQ, ""); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// No worker has polled since, but the slot must already be free.
	if _, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), ""); err != nil {
		t.Fatalf("submit after canceling the queued job: %v", err)
	}
}

// TestUserCancelSurvivesDrain: a user cancel that overlaps a drain must
// stay journaled as the job's terminal event, while the drain itself
// changes no job's state — in memory or in the journal — so a reopened
// service re-enqueues queued work and re-adopts outstanding leases.
// (The in-process path used to need drainCanceled/userCanceled flags to
// tell the two apart after the run unwound; on the lease path the
// cancel is journaled before it is acked and the drain writes nothing.)
func TestUserCancelSurvivesDrain(t *testing.T) {
	jl := &memJournal{}
	s := remoteScheduler(time.Hour, jl)
	idCanceled, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	idLeased, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	idQueued, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	mustLease(t, s, "w1", idCanceled)
	mustLease(t, s, "w2", idLeased)
	if _, err := s.cancelJob(idCanceled, ""); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	s.shutdown()
	for _, c := range []struct {
		id    string
		state JobState
		kinds []eventKind
	}{
		{idCanceled, StateCanceled, []eventKind{evSubmitted, evLeased, evCanceled}},
		{idLeased, StateLeased, []eventKind{evSubmitted, evLeased}},
		{idQueued, StateQueued, []eventKind{evSubmitted}},
	} {
		if st := stateOf(t, s, c.id); st != c.state {
			t.Errorf("%s after drain = %s, want %s", c.id, st, c.state)
		}
		if got := jl.kinds(c.id); !equalKinds(got, c.kinds) {
			t.Errorf("%s journal = %v, want %v", c.id, got, c.kinds)
		}
	}
}

// TestSchedulerPruneTerminal exercises MaxJobRecords: terminal records
// beyond the bound disappear from the table, the order and listings,
// oldest first; live jobs are never pruned.
func TestSchedulerPruneTerminal(t *testing.T) {
	s := newScheduler(schedConfig{maxRecords: 2})
	defer s.shutdown()
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		j := mustLease(t, s, "w1", id)
		if err := s.complete("w1", j.leaseToken, id, StateDone, "", &ResultSummary{}, nil, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// The survivors are the two newest.
	list := s.list()
	if len(list) != 2 || list[0].ID != ids[3] || list[1].ID != ids[4] {
		t.Fatalf("survivors = %+v, want %s,%s", list, ids[3], ids[4])
	}
	for _, id := range ids[:3] {
		if _, ok := s.get(id); ok {
			t.Fatalf("pruned job %s still in the table", id)
		}
	}
	// New submissions still work and IDs keep advancing past pruned ones.
	id6, err := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	if err != nil {
		t.Fatal(err)
	}
	if id6 != "job-000006" {
		t.Fatalf("next ID = %s, want job-000006", id6)
	}
}

// TestSchedulerPruneSparesLiveJobs: a leased job older than every
// terminal record must survive pruning.
func TestSchedulerPruneSparesLiveJobs(t *testing.T) {
	s := newScheduler(schedConfig{maxRecords: 1})
	defer s.shutdown()
	idRun, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
	held := mustLease(t, s, "w-slow", idRun)
	// These go terminal on a second worker while the older job is still
	// out on its lease; pruning must only touch the terminals.
	var done []string
	for i := 0; i < 3; i++ {
		id, _ := s.submit(SubmitRequest{Target: "PLPro"}, time.Now(), "")
		j := mustLease(t, s, "w-fast", id)
		if err := s.complete("w-fast", j.leaseToken, id, StateDone, "", &ResultSummary{}, nil, time.Now()); err != nil {
			t.Fatal(err)
		}
		done = append(done, id)
	}
	if list := s.list(); len(list) != 2 { // leased blocker + 1 retained terminal
		t.Fatalf("listing = %+v, want the live job and one terminal", list)
	}
	if st := stateOf(t, s, idRun); st != StateLeased {
		t.Fatalf("old live job state = %s, want leased", st)
	}
	if _, ok := s.get(done[2]); !ok {
		t.Fatalf("newest terminal job %s missing", done[2])
	}
	if err := s.complete("w-slow", held.leaseToken, idRun, StateDone, "", &ResultSummary{}, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	// Terminal now, the blocker is the oldest record and goes first.
	if list := s.list(); len(list) != 1 || list[0].ID != done[2] {
		t.Fatalf("listing after the blocker finished = %+v, want only %s", list, done[2])
	}
}
