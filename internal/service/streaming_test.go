package service

import (
	"testing"
	"time"
)

// TestStreamingJobMatchesSequential runs the same submission through a
// sequential-path service and a streaming-path service (separate
// instances, so both start cold) and requires identical funnel counts —
// the service-level slice of the golden-funnel contract — plus evidence
// that the streaming job populated the shared caches mid-stream.
func TestStreamingJobMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full (small) campaigns")
	}
	runOne := func(streaming bool) (ResultSummary, *Service) {
		s := NewService(Options{Workers: 1, CacheShards: 8, Streaming: streaming})
		t.Cleanup(s.Shutdown)
		id, err := s.Submit(smallReq())
		if err != nil {
			t.Fatal(err)
		}
		snap, err := s.Wait(id, 5*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != StateDone {
			t.Fatalf("job = %+v", snap)
		}
		sum, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		return sum, s
	}

	seq, _ := runOne(false)
	str, svc := runOne(true)

	if seq.Funnel.Counts() != str.Funnel.Counts() {
		t.Fatalf("streaming service diverged from sequential:\n  %+v\n  %+v",
			seq.Funnel.Counts(), str.Funnel.Counts())
	}
	if len(seq.Top) != len(str.Top) {
		t.Fatalf("top-K lengths differ: %d vs %d", len(seq.Top), len(str.Top))
	}
	for i := range seq.Top {
		if seq.Top[i].MolID != str.Top[i].MolID {
			t.Fatalf("top-K[%d] = %016x vs %016x", i, seq.Top[i].MolID, str.Top[i].MolID)
		}
	}
	// The streaming job must have filled the shared caches as it ran.
	if st := svc.ScoreCacheStats(); st.Puts == 0 {
		t.Fatalf("streaming job did not populate the score cache: %+v", st)
	}
	if st := svc.FeatureCacheStats(); st.Entries == 0 {
		t.Fatalf("streaming job did not populate the feature cache: %+v", st)
	}
	if str.Funnel.OverlapRatio <= 0 || len(str.Funnel.Timings) == 0 {
		t.Fatalf("streaming job missing schedule telemetry: %+v", str.Funnel)
	}
}

// TestStreamingPerJobOptIn: a single submission can opt into streaming
// on a sequential-default service.
func TestStreamingPerJobOptIn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one full (small) campaign")
	}
	s := newTestService(t, 1)
	req := smallReq()
	req.Streaming = true
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Wait(id, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateDone {
		t.Fatalf("job = %+v", snap)
	}
	sum, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	// The streaming schedule leaves its signature: an s1-dock window that
	// opens before the ml1-screen window closes.
	dockStart, _, ok1 := sum.Funnel.StageWindow("s1-dock")
	_, screenEnd, ok2 := sum.Funnel.StageWindow("ml1-screen")
	if !ok1 || !ok2 {
		t.Fatalf("missing stage windows: %+v", sum.Funnel.Timings)
	}
	if dockStart >= screenEnd {
		t.Fatalf("job did not stream: dock window starts at %v, screen ends at %v",
			dockStart, screenEnd)
	}
}

// TestStreamingJobCancellation cancels a streaming job mid-run and
// expects a clean canceled state (no hang, no failed state).
func TestStreamingJobCancellation(t *testing.T) {
	s := NewService(Options{Workers: 1, CacheShards: 8, Streaming: true})
	t.Cleanup(s.Shutdown)
	req := smallReq()
	req.LibrarySize = 2000 // long enough to catch mid-flight
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to leave the queue, then cancel.
	deadline := time.Now().Add(time.Minute)
	for {
		snap, ok := s.Status(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if snap.State == StateLeased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !s.Cancel(id) {
		t.Fatal("cancel refused")
	}
	snap, err := s.Wait(id, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCanceled {
		t.Fatalf("state = %v, want canceled", snap.State)
	}
}
