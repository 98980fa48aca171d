package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"impeccable/internal/blob"
	"impeccable/internal/campaign"
)

// testJournal opens a journal over a fresh blob store in dir with
// default tuning.
func testJournal(t *testing.T, dir string) *journal {
	t.Helper()
	store, err := blob.Open(filepath.Join(dir, blobDirName))
	if err != nil {
		t.Fatal(err)
	}
	jl, _, err := openJournal(dir, store, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

// science projects FunnelCounts down to the seed-deterministic fields:
// the cost ledger (DockEvals, DockCacheHits) varies with cache warmth
// by design — a warm rerun spends nothing — while the science must be
// byte-identical.
func science(c campaign.FunnelCounts) campaign.FunnelCounts {
	c.DockEvals, c.DockCacheHits = 0, 0
	return c
}

// stateDirForTest picks the state dir: IMPECCABLE_STATE_DIR (set by the
// CI restart-smoke job so the journal survives as an artifact on
// failure) or a per-test temp dir.
func stateDirForTest(t *testing.T) string {
	t.Helper()
	if root := os.Getenv("IMPECCABLE_STATE_DIR"); root != "" {
		dir := filepath.Join(root, t.Name())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// crash simulates an unclean shutdown for tests: the workers stop and
// the journal file is closed, but no drain bookkeeping reaches the
// journal and no final cache checkpoint is written — exactly the state
// a kill -9 leaves behind (the journal is fsynced per event).
func crash(s *Service) {
	s.sched.shutdown()
	s.stopOnce.Do(func() {
		close(s.snapStop)
		s.snapWG.Wait()
		_ = s.jl.close()
	})
}

// TestRestartRecovery is the kill-and-restart acceptance test: submit
// jobs, crash mid-queue, reopen the same StateDir. Terminal results
// must be served from the journal without rerunning anything,
// interrupted jobs must resume under their original IDs with
// byte-identical science, and the restored cache snapshot must make
// every rerun and resubmit free of docking evaluations.
func TestRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full (small) campaigns")
	}
	dir := stateDirForTest(t)

	s1, err := Open(Options{Workers: 1, CacheShards: 8, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	idA, err := s1.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	snapA, err := s1.Wait(idA, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if snapA.State != StateDone {
		t.Fatalf("job A = %+v", snapA)
	}
	sumA, err := s1.Result(idA)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint trails the completion; make it land before the crash
	// (TestCrashBeforeCheckpoint covers the other order).
	if err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// B and C are identical submissions; B is leased by the one
	// in-process worker, C stays queued. Then the process "dies".
	idB, err := s1.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	idC, err := s1.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		snap, _ := s1.Status(idB)
		if snap.State == StateLeased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job B never started: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	crash(s1)

	s2, err := Open(Options{Workers: 1, CacheShards: 8, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()

	// B was held by an in-process worker that died with s1: it is back
	// in the queue (or already re-leased) the moment the service opens,
	// not a lease TTL later.
	if snap, ok := s2.Status(idB); !ok || (snap.State != StateQueued && snap.State != StateLeased) {
		t.Fatalf("job B right after reopen = %+v (ok=%v), want queued or leased", snap, ok)
	}
	// The in-process workers' ID namespace is closed to remote callers.
	srv := httptest.NewServer(s2.Handler())
	defer srv.Close()
	var apiErr apiError
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/lease",
		map[string]any{"worker_id": localWorkerPrefix + "0"}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("remote lease under the reserved prefix = %d, want 400", code)
	}

	// A's terminal summary is served straight from the journal.
	snapA2, ok := s2.Status(idA)
	if !ok {
		t.Fatalf("job A lost across restart")
	}
	if snapA2.State != StateDone || snapA2.Finished == nil {
		t.Fatalf("replayed job A = %+v", snapA2)
	}
	sumA2, err := s2.Result(idA)
	if err != nil {
		t.Fatalf("terminal result not served after replay: %v", err)
	}
	if !reflect.DeepEqual(sumA2.Funnel.Counts(), sumA.Funnel.Counts()) ||
		!reflect.DeepEqual(sumA2.Top, sumA.Top) {
		t.Fatalf("replayed summary diverged:\n%+v\nvs\n%+v", sumA2, sumA)
	}

	// B (interrupted while running) and C (interrupted while queued)
	// rerun under their original IDs to byte-identical science — and,
	// because the cache checkpoint taken after A was restored, with zero
	// docking evaluations.
	for _, id := range []string{idB, idC} {
		snap, err := s2.Wait(id, 5*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != StateDone {
			t.Fatalf("resumed job %s = %+v", id, snap)
		}
		sum, err := s2.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(science(sum.Funnel.Counts()), science(sumA.Funnel.Counts())) {
			t.Fatalf("resumed job %s counts diverged: %+v vs %+v",
				id, sum.Funnel.Counts(), sumA.Funnel.Counts())
		}
		if !reflect.DeepEqual(sum.Top, sumA.Top) {
			t.Fatalf("resumed job %s top-K diverged", id)
		}
		if sum.Funnel.DockEvals != 0 {
			t.Fatalf("resumed job %s spent %d dock evals against a restored warm cache",
				id, sum.Funnel.DockEvals)
		}
	}

	// The restored checkpoint preserved the warm-cache hit rate: the
	// reruns were served from imported entries, not recomputed ones.
	if st := s2.ScoreCacheStats(); st.Hits == 0 || st.HitRate == 0 {
		t.Fatalf("restored score cache saw no hits: %+v", st)
	}

	// A fresh warm-cache resubmit: zero dock evals, and the replayed
	// nextID keeps new IDs collision-free.
	idD, err := s2.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if idD != "job-000004" {
		t.Fatalf("post-restart ID = %s, want job-000004", idD)
	}
	if _, err := s2.Wait(idD, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	sumD, err := s2.Result(idD)
	if err != nil {
		t.Fatal(err)
	}
	if sumD.Funnel.DockEvals != 0 {
		t.Fatalf("warm-cache resubmit spent %d dock evals, want 0", sumD.Funnel.DockEvals)
	}
	if !reflect.DeepEqual(science(sumD.Funnel.Counts()), science(sumA.Funnel.Counts())) {
		t.Fatalf("warm resubmit counts diverged")
	}

	// Listing order survives: A, B, C, then D.
	var order []string
	for _, snap := range s2.Jobs() {
		order = append(order, snap.ID)
	}
	if want := []string{idA, idB, idC, idD}; !reflect.DeepEqual(order, want) {
		t.Fatalf("job order after restart = %v, want %v", order, want)
	}
}

// TestCanceledWhileQueuedSnapshot pins the canceled-while-queued shape
// (Finished set, Started nil) across cancel, crash and replay, and that
// no negative duration is ever derived from it.
func TestCanceledWhileQueuedSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("occupies a worker with a real campaign")
	}
	dir := stateDirForTest(t)
	s1, err := Open(Options{Workers: 1, CacheShards: 8, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	blocker := smallReq()
	blocker.LibrarySize = 4000
	blocker.TrainSize = 800
	blocker.FastProtocols = false
	idBlock, err := s1.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		snap, _ := s1.Status(idBlock)
		if snap.State == StateLeased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	idQ, err := s1.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Cancel(idQ) {
		t.Fatal("cancel returned false")
	}
	check := func(s *Service, phase string) {
		snap, ok := s.Status(idQ)
		if !ok {
			t.Fatalf("%s: canceled job lost", phase)
		}
		if snap.State != StateCanceled {
			t.Fatalf("%s: state = %s, want canceled", phase, snap.State)
		}
		if snap.Started != nil {
			t.Fatalf("%s: canceled-while-queued job has a start time %v", phase, snap.Started)
		}
		if snap.Finished == nil {
			t.Fatalf("%s: canceled job has no finish time", phase)
		}
		if d := snap.Duration(); d != 0 {
			t.Fatalf("%s: duration = %v for a job that never ran", phase, d)
		}
	}
	check(s1, "before crash")
	crash(s1)

	s2, err := Open(Options{Workers: 1, CacheShards: 8, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	check(s2, "after replay")
	// The interrupted blocker came back as pending work, not canceled.
	if snap, ok := s2.Status(idBlock); !ok || snap.State.Terminal() {
		t.Fatalf("interrupted blocker = %+v ok=%v, want re-enqueued", snap, ok)
	}
	s2.Cancel(idBlock)
	s2.Shutdown()
}

// TestJobSnapshotDuration pins the clamping directly, including a
// pathological finished-before-started pair.
func TestJobSnapshotDuration(t *testing.T) {
	now := time.Now()
	earlier := now.Add(-time.Minute)
	cases := []struct {
		name string
		snap JobSnapshot
		want time.Duration
	}{
		{"never started", JobSnapshot{Finished: &now}, 0},
		{"never finished", JobSnapshot{Started: &now}, 0},
		{"normal", JobSnapshot{Started: &earlier, Finished: &now}, time.Minute},
		{"clock skew", JobSnapshot{Started: &now, Finished: &earlier}, 0},
	}
	for _, c := range cases {
		if got := c.snap.Duration(); got != c.want {
			t.Errorf("%s: Duration() = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestReplayJournal drives the event-stream reducer directly: terminal
// jobs restore as servable records, interrupted jobs come back queued,
// and the ID high-water mark is recovered.
func TestReplayJournal(t *testing.T) {
	t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	req := smallReq()
	sum := ResultSummary{ScientificYield: 0.5}
	events := []journalEvent{
		{Kind: evSubmitted, Job: "job-000001", Time: t0, Req: &req},
		{Kind: evStarted, Job: "job-000001", Time: t0.Add(time.Second)},
		{Kind: evDone, Job: "job-000001", Time: t0.Add(time.Minute), Summary: &sum},
		{Kind: evSubmitted, Job: "job-000002", Time: t0.Add(2 * time.Second), Req: &req},
		{Kind: evStarted, Job: "job-000002", Time: t0.Add(3 * time.Second)},
		{Kind: evSubmitted, Job: "job-000003", Time: t0.Add(4 * time.Second), Req: &req},
		{Kind: evCanceled, Job: "job-000003", Time: t0.Add(5 * time.Second)},
		{Kind: evStarted, Job: "job-000099", Time: t0}, // submission lost: dropped
		{Kind: evSubmitted, Job: "job-000007", Time: t0.Add(6 * time.Second), Req: &req},
		// Checkpoints collapse terminal jobs only; one whose state is
		// missing or unknown (damaged on disk) restores nothing.
		{Kind: evCheckpoint, Job: "job-000004", Time: t0, Req: &req, State: StateFailed, Error: "boom"},
		{Kind: evCheckpoint, Job: "job-000005", Time: t0, Req: &req},
		{Kind: evCheckpoint, Job: "job-000006", Time: t0, Req: &req, State: "bogus"},
	}
	jobs, maxID := replayJournal(events, nil)
	if maxID != 7 {
		t.Fatalf("maxID = %d, want 7", maxID)
	}
	if len(jobs) != 5 {
		t.Fatalf("replayed %d jobs, want 5", len(jobs))
	}
	byID := map[string]*job{}
	for _, j := range jobs {
		byID[j.id] = j
	}
	if j := byID["job-000001"]; j.state != StateDone || j.result == nil ||
		j.result.summary.ScientificYield != 0.5 || j.progress != 1 {
		t.Fatalf("done job replayed as %+v", j)
	}
	// Interrupted mid-run: queued again, stale start time cleared.
	if j := byID["job-000002"]; j.state != StateQueued || !j.started.IsZero() {
		t.Fatalf("interrupted job replayed as state=%s started=%v", j.state, j.started)
	}
	// Canceled while queued: terminal, finish time kept, never started.
	if j := byID["job-000003"]; j.state != StateCanceled || j.finished.IsZero() || !j.started.IsZero() {
		t.Fatalf("canceled job replayed as %+v", j)
	}
	if j := byID["job-000007"]; j.state != StateQueued {
		t.Fatalf("never-started job replayed as %s", j.state)
	}
	if _, lost := byID["job-000099"]; lost {
		t.Fatal("event without a submission produced a job")
	}
	if j := byID["job-000004"]; j == nil || j.state != StateFailed || j.err != "boom" {
		t.Fatalf("terminal checkpoint replayed as %+v", j)
	}
	for _, id := range []string{"job-000005", "job-000006"} {
		if j := byID[id]; j != nil {
			t.Fatalf("checkpoint %s with state %q produced a job", id, j.state)
		}
	}

	// Restored, the tallies show exactly what replayed — and a state the
	// scheduler does not know is tallied nowhere rather than aliased onto
	// some other state's slot.
	s := remoteScheduler(time.Hour, nil)
	defer s.shutdown()
	s.restore(jobs, maxID)
	s.countAdd("bogus", 1)
	want := map[JobState]int{StateQueued: 2, StateDone: 1, StateFailed: 1, StateCanceled: 1}
	if got := s.counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counts after restore = %v, want %v", got, want)
	}
	if got := s.queueDepth(); got != 2 {
		t.Fatalf("queue depth after restore = %d, want the 2 interrupted jobs", got)
	}
}

// TestReadJournalToleratesTornWrite: a trailing line torn by a crash
// must not poison the replayable prefix.
func TestReadJournalToleratesTornWrite(t *testing.T) {
	dir := t.TempDir()
	jl := testJournal(t, dir)
	req := smallReq()
	if err := jl.append(journalEvent{Kind: evSubmitted, Job: "job-000001", Time: time.Now(), Req: &req}); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"done","job":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	events, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != evSubmitted || events[0].Job != "job-000001" {
		t.Fatalf("events = %+v, want the one intact submission", events)
	}
	if events[0].Req == nil || events[0].Req.Target != req.Target {
		t.Fatalf("request payload lost: %+v", events[0].Req)
	}
}

// TestJournalEventRoundTrip pins the on-disk shape: one JSON object per
// line with the SubmitRequest and ResultSummary payloads intact, plus
// the auto-appended sealed event closing the provenance chain.
func TestJournalEventRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl := testJournal(t, dir)
	req := smallReq()
	req.LibOffset = 1234
	sum := ResultSummary{ScientificYield: 2.5}
	evs := []journalEvent{
		{Kind: evSubmitted, Job: "job-000001", Time: time.Now().UTC(), Req: &req},
		{Kind: evStarted, Job: "job-000001", Time: time.Now().UTC()},
		{Kind: evDone, Job: "job-000001", Time: time.Now().UTC(), Summary: &sum},
	}
	for _, ev := range evs {
		if err := jl.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := jl.append(evs[0]); err == nil {
		t.Fatal("append after close succeeded")
	}
	got, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("read %d events, want 4 (3 appended + auto-sealed)", len(got))
	}
	if got[0].Req.LibOffset != 1234 {
		t.Fatalf("LibOffset lost: %+v", got[0].Req)
	}
	if got[2].Summary.ScientificYield != 2.5 {
		t.Fatalf("summary lost: %+v", got[2].Summary)
	}
	if got[3].Kind != evSealed || got[3].Root == "" {
		t.Fatalf("terminal event not followed by a sealed root: %+v", got[3])
	}
	for i, ev := range got {
		if ev.Hash == "" {
			t.Fatalf("event %d has no chain hash: %+v", i, ev)
		}
	}
	// Each line must be standalone JSON (jq-able operator tooling).
	raw, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var probe map[string]any
	line := raw[:1+bytesIndex(raw, '\n')]
	if err := json.Unmarshal(line, &probe); err != nil {
		t.Fatalf("first journal line is not standalone JSON: %v", err)
	}
}

// bytesIndex avoids importing bytes for one call.
func bytesIndex(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// TestSnapshotRoundTrip writes a base chunk and a delta chunk through
// the blob store and restores both into a cold cache.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.Open(filepath.Join(dir, blobDirName))
	if err != nil {
		t.Fatal(err)
	}
	scores := NewScoreCache(4, 0)
	scores.trackDirty()
	view := scores.ForTarget("PLPro")
	for id := uint64(1); id <= 20; id++ {
		view.Put(molForTest(id), mockResult(id))
	}
	chunks, err := saveSnapshot(dir, store, scores.takeDirty(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 {
		t.Fatalf("first checkpoint left %d chunks, want 1", len(chunks))
	}
	// Only what was stored since goes into the next chunk; a re-Put of an
	// identical result is not a change.
	view.Put(molForTest(3), mockResult(3))
	for id := uint64(21); id <= 25; id++ {
		view.Put(molForTest(id), mockResult(id))
	}
	delta := scores.takeDirty()
	if len(delta) != 5 {
		t.Fatalf("delta holds %d entries, want the 5 new ones", len(delta))
	}
	if chunks, err = saveSnapshot(dir, store, delta, chunks); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 || chunks[1].Size >= chunks[0].Size {
		t.Fatalf("chunks after the delta = %+v, want a base and a smaller delta", chunks)
	}

	scores2 := NewScoreCache(8, 0) // different shard width on purpose
	got, rollup, err := loadSnapshot(dir, store, scores2)
	if err != nil {
		t.Fatal(err)
	}
	if rollup || !reflect.DeepEqual(got, chunks) {
		t.Fatalf("loadSnapshot = %+v (rollup %v), want %+v", got, rollup, chunks)
	}
	if scores2.Len() != scores.Len() {
		t.Fatalf("restored %d score entries, want %d", scores2.Len(), scores.Len())
	}
	view2 := scores2.ForTarget("PLPro")
	for id := uint64(1); id <= 25; id++ {
		r, ok := view2.Get(molForTest(id))
		want := mockResult(id)
		if !ok || r.Score != want.Score || len(r.Genome) != len(want.Genome) {
			t.Fatalf("restored entry %d = %+v ok=%v", id, r, ok)
		}
	}
	// Missing snapshot dir: cold start, not an error.
	cold := t.TempDir()
	coldStore, err := blob.Open(filepath.Join(cold, blobDirName))
	if err != nil {
		t.Fatal(err)
	}
	if got, rollup, err := loadSnapshot(cold, coldStore, NewScoreCache(2, 0)); err != nil || got != nil || rollup {
		t.Fatalf("cold start: chunks=%v rollup=%v err=%v", got, rollup, err)
	}
}
