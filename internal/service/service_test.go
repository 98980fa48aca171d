package service

import (
	"errors"
	"testing"
	"time"

	"impeccable/internal/campaign"
)

// smallReq is a campaign sized to finish in seconds.
func smallReq() SubmitRequest {
	return SubmitRequest{
		Target:        "PLPro",
		LibrarySize:   300,
		TrainSize:     60,
		CGCount:       3,
		TopCompounds:  2,
		OutliersPer:   2,
		Seed:          1,
		FastProtocols: true,
	}
}

func newTestService(t *testing.T, workers int) *Service {
	t.Helper()
	s := NewService(Options{Workers: workers, CacheShards: 8})
	t.Cleanup(s.Shutdown)
	return s
}

// TestOverlappingCampaignsShareCache is the acceptance test for the
// shared score cache: a second campaign over the same target and library
// window is served largely from cache, spending strictly fewer docking
// evaluations than the cold campaign that populated it.
func TestOverlappingCampaignsShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full (small) campaigns")
	}
	s := newTestService(t, 1)

	id1, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	snap1, err := s.Wait(id1, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if snap1.State != StateDone {
		t.Fatalf("job 1 = %+v", snap1)
	}
	sum1, err := s.Result(id1)
	if err != nil {
		t.Fatal(err)
	}
	// A cold campaign may still hit the cache a handful of times (its
	// training sample and S1 selection can overlap), but the bulk of its
	// docking must be real work.
	if sum1.Funnel.DockCacheHits >= sum1.Funnel.Docked/2 {
		t.Fatalf("cold campaign hit the cache %d times over %d docks",
			sum1.Funnel.DockCacheHits, sum1.Funnel.Docked)
	}
	if sum1.Funnel.DockEvals == 0 {
		t.Fatal("cold campaign spent no dock evals")
	}

	// Same target, seed and window → the same library IDs get docked.
	id2, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := s.Wait(id2, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.State != StateDone {
		t.Fatalf("job 2 = %+v", snap2)
	}
	sum2, err := s.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Funnel.DockCacheHits <= sum1.Funnel.DockCacheHits {
		t.Fatalf("warm campaign hit the cache %d times, cold %d — no cross-campaign reuse",
			sum2.Funnel.DockCacheHits, sum1.Funnel.DockCacheHits)
	}
	if sum2.Funnel.DockEvals >= sum1.Funnel.DockEvals {
		t.Fatalf("warm campaign spent %d evals, cold spent %d — cache saved nothing",
			sum2.Funnel.DockEvals, sum1.Funnel.DockEvals)
	}
	st := s.ScoreCacheStats()
	if st.HitRate <= 0 {
		t.Fatalf("cache hit rate = %v, want > 0", st.HitRate)
	}
	// Funnels must agree: the cache changes cost, not science.
	if sum1.Funnel.Screened != sum2.Funnel.Screened || sum1.Funnel.CG != sum2.Funnel.CG {
		t.Fatalf("funnels diverged: %+v vs %+v", sum1.Funnel, sum2.Funnel)
	}
}

func TestCancelRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real campaign")
	}
	s := newTestService(t, 1)
	// Big enough that it cannot finish before we cancel.
	req := smallReq()
	req.LibrarySize = 4000
	req.TrainSize = 800
	req.FastProtocols = false
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to leave the queue, then cancel mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, _ := s.Status(id)
		if snap.State == StateLeased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !s.Cancel(id) {
		t.Fatal("cancel returned false for a live job")
	}
	snap, err := s.Wait(id, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", snap.State)
	}
	if snap.Finished == nil {
		t.Fatal("canceled job has no finish time")
	}
	if _, err := s.Result(id); err == nil {
		t.Fatal("Result succeeded for a canceled job")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("occupies a worker with a real campaign")
	}
	s := newTestService(t, 1)
	// First job occupies the only worker; second stays queued.
	blocker := smallReq()
	blocker.LibrarySize = 4000
	blocker.TrainSize = 800
	blocker.FastProtocols = false
	id1, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := s.Status(id2); snap.State != StateQueued {
		t.Fatalf("job 2 state = %s, want queued", snap.State)
	}
	if !s.Cancel(id2) {
		t.Fatal("cancel returned false")
	}
	if snap, _ := s.Status(id2); snap.State != StateCanceled {
		t.Fatalf("job 2 state = %s, want canceled", snap.State)
	}
	s.Cancel(id1)
	if _, err := s.Wait(id1, time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, 1)
	if _, err := s.Submit(SubmitRequest{Target: "NoSuchProtease"}); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := s.Submit(SubmitRequest{Target: "PLPro", LibrarySize: 3}); err == nil {
		t.Fatal("tiny library accepted")
	}
	if _, err := s.Submit(SubmitRequest{Target: "PLPro", TrainSize: 2}); err == nil {
		t.Fatal("tiny train size accepted")
	}
	if _, err := s.Submit(SubmitRequest{Target: "PLPro", LibrarySize: MaxLibrarySize + 1}); err == nil {
		t.Fatal("oversized library accepted")
	}
	if _, err := s.Submit(SubmitRequest{Target: "PLPro", CGCount: MaxCGCount + 1}); err == nil {
		t.Fatal("oversized cg_count accepted")
	}
	if _, ok := s.Status("job-999999"); ok {
		t.Fatal("status of unknown job reported ok")
	}
	if s.Cancel("job-999999") {
		t.Fatal("cancel of unknown job reported true")
	}
	if _, err := s.Result("job-999999"); err == nil {
		t.Fatal("result of unknown job succeeded")
	}
}

func TestResultRetentionTrimming(t *testing.T) {
	// A long job table: releasing the oldest full result must not depend
	// on walking it. Completions are driven by hand, as an in-process
	// holder would make them.
	t.Run("1100 terminal jobs", func(t *testing.T) {
		s := NewService(Options{RemoteOnly: true, CacheShards: 4})
		t.Cleanup(s.Shutdown)
		var ids []string
		for i := 0; i < 1100; i++ {
			id, err := s.Submit(smallReq())
			if err != nil {
				t.Fatal(err)
			}
			g, err := s.Lease("w", 0)
			if err != nil || g == nil || g.JobID != id {
				t.Fatalf("lease = %+v, %v", g, err)
			}
			if err := s.complete("w", g.Token, id, WorkerResult{Summary: &ResultSummary{}}, &campaign.Result{}); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i, id := range ids {
			_, err := s.FullResult(id)
			if kept := i >= len(ids)-64; kept && err != nil {
				t.Fatalf("job %d of %d lost its full result inside the bound: %v", i, len(ids), err)
			} else if !kept && !errors.Is(err, ErrNoResult) {
				t.Fatalf("job %d of %d kept its full result past the bound (err %v)", i, len(ids), err)
			}
		}
		if n := len(s.fullIDs); n != 64 {
			t.Fatalf("retention queue holds %d IDs, want 64", n)
		}
	})
	if testing.Short() {
		t.Skip("runs two full (small) campaigns")
	}
	s := NewService(Options{Workers: 1, CacheShards: 8, MaxRetainedResults: 1})
	t.Cleanup(s.Shutdown)
	id1, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id1, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FullResult(id1); err != nil {
		t.Fatalf("full result unavailable before trimming: %v", err)
	}
	req2 := smallReq()
	req2.LibOffset = 1000
	id2, err := s.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id2, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Bound is 1: the older job's full result is released, the newer
	// kept; summaries survive for both.
	if _, err := s.FullResult(id1); err == nil {
		t.Fatal("job 1's full result survived past the retention bound")
	}
	if _, err := s.FullResult(id2); err != nil {
		t.Fatalf("job 2's full result missing: %v", err)
	}
	for _, id := range []string{id1, id2} {
		sum, err := s.Result(id)
		if err != nil || sum.Funnel.Screened == 0 {
			t.Fatalf("summary for %s lost: %+v, %v", id, sum, err)
		}
	}
}

func TestShutdownRejectsSubmissions(t *testing.T) {
	s := NewService(Options{Workers: 1})
	s.Shutdown()
	if _, err := s.Submit(smallReq()); err == nil {
		t.Fatal("submit succeeded after shutdown")
	}
	// Idempotent.
	s.Shutdown()
}
