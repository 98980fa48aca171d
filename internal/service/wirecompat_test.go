package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"impeccable/internal/campaign"
)

// TestWireCompatStreamingJob opens a committed state dir written before
// the streaming funnel was removed: one finished job submitted with
// "streaming": true, its summary inline in the journal (with the
// always-zero SpeculativeDocks/SpeculativeEvals fields) and one cache
// checkpoint chunk. Provenance hashes re-marshal decoded events, so
// dropping either field from the wire types breaks the chain; strict
// submit decoding means dropping SubmitRequest.Streaming would also
// turn old clients' requests into 400s.
func TestWireCompatStreamingJob(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/streaming-job")); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Sealed != 1 {
		t.Fatalf("verify: %+v", rep)
	}

	s, err := Open(Options{RemoteOnly: true, CacheShards: 1, StateDir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown()
	})
	const id = "job-000001"
	if snap, ok := s.Status(id); !ok || snap.State != StateDone {
		t.Fatalf("status = %+v, %v", snap, ok)
	}
	sum, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.FunnelCounts{Screened: 40, Docked: 11, CG: 1, S2Frames: 60, FG: 1,
		DockEvals: 251213, DockCacheHits: 1}
	if got := sum.Funnel.Counts(); got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}

	body := `{"target":"PLPro","library_size":40,"train_size":10,"seed":3,"streaming":true}`
	resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("streaming submit: status %d, want 202", resp.StatusCode)
	}
}
