package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"impeccable/internal/campaign"
	"impeccable/internal/receptor"
	"impeccable/internal/service"
)

// smallReq mirrors the service package's test campaign: sized to
// finish in seconds.
func smallReq() service.SubmitRequest {
	return service.SubmitRequest{
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

// newCoordinator starts a RemoteOnly service behind httptest: nothing
// executes unless a worker leases it.
func newCoordinator(t *testing.T, opts service.Options) (*service.Service, *httptest.Server) {
	t.Helper()
	opts.RemoteOnly = true
	if opts.CacheShards == 0 {
		opts.CacheShards = 8
	}
	s, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, newServer(t, s)
}

// newServer puts a service behind httptest; both go down with the test.
func newServer(t *testing.T, s *service.Service) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown()
	})
	return srv
}

// newWorker builds a quiet, fast-polling test worker.
func newWorker(t *testing.T, url, id string, ttl time.Duration) *Worker {
	t.Helper()
	return New(Options{
		Server: url,
		ID:     id,
		TTL:    ttl,
		Poll:   20 * time.Millisecond,
		Logf:   t.Logf,
	})
}

// baseline runs the request in-process on a fresh (cold) single-worker
// service — the summary a remote execution must match byte for byte.
func baseline(t *testing.T, req service.SubmitRequest) service.ResultSummary {
	t.Helper()
	s := service.NewService(service.Options{Workers: 1, CacheShards: 8})
	defer s.Shutdown()
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Wait(id, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != service.StateDone {
		t.Fatalf("baseline job = %+v", snap)
	}
	sum, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// assertIdentical compares the deterministic projection of two
// summaries: the funnel counts (cost ledger included — both runs are
// cold), the top-K comparisons and the scientific yield. Timings are
// wall-clock and excluded by construction.
func assertIdentical(t *testing.T, what string, got, want service.ResultSummary) {
	t.Helper()
	if !reflect.DeepEqual(got.Funnel.Counts(), want.Funnel.Counts()) {
		t.Fatalf("%s: funnel diverged:\n%+v\nvs\n%+v", what, got.Funnel.Counts(), want.Funnel.Counts())
	}
	if !reflect.DeepEqual(got.Top, want.Top) {
		t.Fatalf("%s: top-K diverged:\n%+v\nvs\n%+v", what, got.Top, want.Top)
	}
	if got.ScientificYield != want.ScientificYield {
		t.Fatalf("%s: yield %v vs %v", what, got.ScientificYield, want.ScientificYield)
	}
}

// uploadTap is an http.RoundTripper that keeps the body of every
// complete call the worker makes.
type uploadTap struct {
	mu      sync.Mutex
	uploads [][]byte
}

func (u *uploadTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/worker/complete") {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		u.mu.Lock()
		u.uploads = append(u.uploads, body)
		u.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWorkerRunsCampaignRemotely is the acceptance test for remote
// execution: a campaign submitted to a zero-local-worker coordinator
// completes on a worker process with a ResultSummary byte-identical to
// in-process execution, and the worker's fresh docking labels — and
// only those: no feature vectors — land in the coordinator's cache.
func TestWorkerRunsCampaignRemotely(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full (small) campaigns")
	}
	s, srv := newCoordinator(t, service.Options{})
	id, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tap := &uploadTap{}
	w := New(Options{Server: srv.URL, ID: "w-remote", Poll: 20 * time.Millisecond, Logf: t.Logf,
		HTTPClient: &http.Client{Transport: tap}})
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	snap, err := s.Wait(id, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != service.StateDone {
		t.Fatalf("remote job = %+v", snap)
	}
	if snap.Worker != "w-remote" {
		t.Fatalf("snapshot worker = %q, want w-remote", snap.Worker)
	}
	got, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "remote vs in-process", got, baseline(t, smallReq()))

	// The worker's fresh docking labels were merged into the
	// coordinator's caches on complete.
	if st := s.ScoreCacheStats(); st.Entries == 0 {
		t.Fatalf("coordinator score cache empty after remote completion: %+v", st)
	}
	cancel()
	<-done

	// The upload carries scores, no feature vectors, and stage timings
	// only in the summary.
	if len(tap.uploads) != 1 {
		t.Fatalf("worker made %d complete calls, want 1", len(tap.uploads))
	}
	var upload map[string]json.RawMessage
	if err := json.Unmarshal(tap.uploads[0], &upload); err != nil {
		t.Fatal(err)
	}
	if _, ok := upload["scores"]; !ok {
		t.Fatal("upload carries no scores")
	}
	if _, ok := upload["features"]; ok {
		t.Fatalf("upload still carries features (%d bytes in all)", len(tap.uploads[0]))
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(upload["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats["score_cache"] == nil {
		t.Fatalf("upload stats = %s, want score_cache alone", upload["stats"])
	}
	// An older worker's completion that does carry features is still a
	// 200.
	id2, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Lease("w-older", 0)
	if err != nil || g == nil || g.JobID != id2 {
		t.Fatalf("lease = %+v, %v", g, err)
	}
	body, _ := json.Marshal(service.CompleteRequest{WorkerID: "w-older", Token: g.Token, JobID: id2,
		WorkerResult: service.WorkerResult{Summary: &got, Features: []service.FeatureEntry{{ID: 7, Vec: []float64{1, 2}}}}})
	resp, err := http.Post(srv.URL+"/api/v1/worker/complete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("completion carrying features = %d, want 200", resp.StatusCode)
	}
}

// TestWorkerCachesWarmAcrossJobs: a worker's score cache persists
// across jobs, so an identical second submission docks entirely from
// cache — zero evaluations — while the science stays identical.
func TestWorkerCachesWarmAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full (small) campaigns")
	}
	s, srv := newCoordinator(t, service.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newWorker(t, srv.URL, "w-warm", 0)
	go func() { _ = w.Run(ctx) }()

	id1, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id1, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	sum1, err := s.Result(id1)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Funnel.DockEvals == 0 {
		t.Fatal("cold remote run spent no dock evals")
	}

	id2, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id2, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	sum2, err := s.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Funnel.DockEvals != 0 {
		t.Fatalf("warm remote rerun spent %d dock evals, want 0", sum2.Funnel.DockEvals)
	}
	if !reflect.DeepEqual(sum1.Top, sum2.Top) {
		t.Fatal("warm rerun changed the science")
	}
}

// TestWorkerKilledMidJobRerunsIdentically is the fault-tolerance
// acceptance test: a worker killed mid-job stops heartbeating, the
// lease expires, the job re-enters the queue under its original ID,
// and a second worker completes it with a ResultSummary byte-identical
// to in-process execution — with the whole lease history journaled, so
// a coordinator restart afterwards still serves the result.
func TestWorkerKilledMidJobRerunsIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several (small) campaigns")
	}
	dir := t.TempDir()
	s, srv := newCoordinator(t, service.Options{StateDir: dir, LeaseTTL: time.Second})

	// Big enough that the kill lands mid-run, small enough to stay fast.
	req := smallReq()
	req.LibrarySize = 1200
	req.TrainSize = 240
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Worker A leases the job and dies (context kill: no complete, no
	// further heartbeats — exactly what kill -9 looks like upstream).
	ctxA, killA := context.WithCancel(context.Background())
	wA := newWorker(t, srv.URL, "w-doomed", 0)
	doneA := make(chan error, 1)
	go func() { doneA <- wA.Run(ctxA) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, _ := s.Status(id)
		if snap.State == service.StateLeased && snap.Progress > 0 {
			break
		}
		if snap.State.Terminal() {
			t.Fatalf("job finished before the kill: %+v (grow the request)", snap)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never got leased and under way: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	killA()
	<-doneA
	if n := wA.Completed(); n != 0 {
		t.Fatalf("killed worker completed %d jobs", n)
	}

	// No heartbeats → lease expiry → requeue under the original ID.
	deadline = time.Now().Add(15 * time.Second)
	for {
		snap, _ := s.Status(id)
		if snap.State == service.StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired into a requeue: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Worker B picks the rerun up cold and completes it.
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	wB := newWorker(t, srv.URL, "w-rescue", 0)
	go func() { _ = wB.Run(ctxB) }()
	snap, err := s.Wait(id, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != service.StateDone || snap.Worker != "w-rescue" {
		t.Fatalf("rescued job = %+v", snap)
	}
	got, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "rescued rerun vs in-process", got, baseline(t, req))
	cancelB()

	// The journaled lease history (leased → requeued → leased → done)
	// replays cleanly: a restarted coordinator serves the same summary.
	s.Shutdown()
	s2, err := service.Open(service.Options{RemoteOnly: true, CacheShards: 8, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	snap2, ok := s2.Status(id)
	if !ok || snap2.State != service.StateDone {
		t.Fatalf("job after coordinator restart = %+v (ok=%v)", snap2, ok)
	}
	got2, err := s2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "replayed result vs rescued result", got2, got)
}

// TestWorkerReportsUnknownTargetAsFailure: a worker that cannot serve
// a target fails the job with a useful error instead of wedging the
// lease until expiry. Runs in -short (no campaign executes).
func TestWorkerReportsUnknownTargetAsFailure(t *testing.T) {
	s, srv := newCoordinator(t, service.Options{})
	id, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	w := New(Options{
		Server:  srv.URL,
		ID:      "w-limited",
		Poll:    20 * time.Millisecond,
		Targets: []*receptor.Target{receptor.StandardTargets()[0]}, // 3CLPro only: no PLPro
		Logf:    t.Logf,
	})
	ran, err := w.RunOne(context.Background())
	if err != nil || !ran {
		t.Fatalf("RunOne = %v, %v", ran, err)
	}
	snap, err := s.Wait(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != service.StateFailed || snap.Error == "" {
		t.Fatalf("job on a target-less worker = %+v, want failed with error", snap)
	}
}

// TestBaseConfigMatchesDefaults pins the shared request translation:
// a zero-valued submission must produce exactly the campaign defaults
// (what the coordinator's in-process path runs), so remote workers can
// never drift scientifically.
func TestBaseConfigMatchesDefaults(t *testing.T) {
	tgt := receptor.PLPro()
	got := service.BaseConfig(service.SubmitRequest{Target: "PLPro"}, tgt)
	want := campaign.DefaultConfig(tgt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BaseConfig(zero req) = %+v, want defaults %+v", got, want)
	}
	req := smallReq()
	cfg := service.BaseConfig(req, tgt)
	if cfg.LibrarySize != req.LibrarySize || cfg.TrainSize != req.TrainSize ||
		cfg.Seed != req.Seed || !cfg.FastProtocols {
		t.Fatalf("BaseConfig dropped request knobs: %+v", cfg)
	}
}
