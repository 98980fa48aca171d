package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"impeccable/internal/dock"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := NewService(Options{Workers: 1, CacheShards: 8})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown()
	})
	return s, srv
}

// doJSON issues a request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPSubmitStatusResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (small) campaign")
	}
	_, srv := newTestServer(t)

	var snap JobSnapshot
	code := doJSON(t, "POST", srv.URL+"/api/v1/campaigns", smallReq(), &snap)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if snap.ID == "" || snap.State == "" {
		t.Fatalf("submit snapshot = %+v", snap)
	}

	// A result request before completion is a 409, not a 404. Probe once,
	// right after submit — the campaign cannot have finished yet.
	var apiErr apiError
	if code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns/"+snap.ID+"/result", nil, &apiErr); code != http.StatusConflict {
		t.Fatalf("premature result fetch = %d, want 409", code)
	}
	deadlineOK := false
	for deadline := time.Now().Add(5 * time.Minute); time.Now().Before(deadline); {
		code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns/"+snap.ID, nil, &snap)
		if code != http.StatusOK {
			t.Fatalf("status code = %d", code)
		}
		if snap.State.Terminal() {
			deadlineOK = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !deadlineOK {
		t.Fatalf("job never finished: %+v", snap)
	}
	if snap.State != StateDone {
		t.Fatalf("job state = %s (%s)", snap.State, snap.Error)
	}
	if snap.Progress != 1 || snap.Started == nil || snap.Finished == nil {
		t.Fatalf("done snapshot incomplete: %+v", snap)
	}

	var sum ResultSummary
	if code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns/"+snap.ID+"/result", nil, &sum); code != http.StatusOK {
		t.Fatalf("result status = %d", code)
	}
	if sum.Funnel.Screened != 300 || len(sum.Top) == 0 {
		t.Fatalf("result summary = %+v", sum)
	}

	// List includes the job; cache endpoint reports the cold misses.
	var list []JobSnapshot
	if code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns", nil, &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list = %d items, code %d", len(list), code)
	}
	var cs cacheStatsBody
	if code := doJSON(t, "GET", srv.URL+"/api/v1/cache", nil, &cs); code != http.StatusOK {
		t.Fatalf("cache status = %d", code)
	}
	if cs.Scores.Puts == 0 {
		t.Fatalf("cache stats empty after a campaign: %+v", cs)
	}
}

func TestHTTPCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real campaign")
	}
	_, srv := newTestServer(t)
	req := smallReq()
	req.LibrarySize = 4000
	req.TrainSize = 800
	req.FastProtocols = false

	var snap JobSnapshot
	if code := doJSON(t, "POST", srv.URL+"/api/v1/campaigns", req, &snap); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	id := snap.ID
	for deadline := time.Now().Add(30 * time.Second); ; {
		doJSON(t, "GET", srv.URL+"/api/v1/campaigns/"+id, nil, &snap)
		if snap.State == StateLeased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code := doJSON(t, "DELETE", srv.URL+"/api/v1/campaigns/"+id, nil, &snap); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	for deadline := time.Now().Add(time.Minute); ; {
		doJSON(t, "GET", srv.URL+"/api/v1/campaigns/"+id, nil, &snap)
		if snap.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never terminated after cancel: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", snap.State)
	}
	var apiErr apiError
	if code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns/"+id+"/result", nil, &apiErr); code != http.StatusGone {
		t.Fatalf("result of canceled job = %d, want 410", code)
	}
}

func TestHTTPErrorsAndHealth(t *testing.T) {
	_, srv := newTestServer(t)

	// Malformed body.
	resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", resp.StatusCode)
	}
	// Unknown field.
	resp, err = http.Post(srv.URL+"/api/v1/campaigns", "application/json",
		strings.NewReader(`{"target":"PLPro","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d", resp.StatusCode)
	}
	// Unknown target.
	var apiErr apiError
	if code := doJSON(t, "POST", srv.URL+"/api/v1/campaigns",
		SubmitRequest{Target: "Nope"}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("unknown target = %d", code)
	}
	if apiErr.Error == "" {
		t.Fatal("error body missing")
	}
	// Oversized body: a size problem is 413, not 400.
	resp, err = http.Post(srv.URL+"/api/v1/campaigns", "application/json",
		strings.NewReader(`{"target":"`+strings.Repeat("x", maxSubmitBody+1)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
	// Unknown job IDs.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/api/v1/campaigns/job-999999"},
		{"DELETE", "/api/v1/campaigns/job-999999"},
		{"GET", "/api/v1/campaigns/job-999999/result"},
	} {
		if code := doJSON(t, probe.method, srv.URL+probe.path, nil, &apiErr); code != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", probe.method, probe.path, code)
		}
	}
	// Health.
	var hb healthBody
	if code := doJSON(t, "GET", srv.URL+"/healthz", nil, &hb); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if hb.Status != "ok" || len(hb.Targets) != 4 {
		t.Fatalf("health = %+v", hb)
	}
}

// TestHTTPQueueFull429 pins the MaxQueued backpressure surface: a full
// pending queue turns into 429 Too Many Requests with a Retry-After
// hint, while in-bound submissions still 202.
func TestHTTPQueueFull429(t *testing.T) {
	if testing.Short() {
		t.Skip("occupies a worker with a real campaign")
	}
	s := NewService(Options{Workers: 1, CacheShards: 8, MaxQueued: 1})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown()
	})

	blocker := smallReq()
	blocker.LibrarySize = 4000
	blocker.TrainSize = 800
	blocker.FastProtocols = false
	var snap JobSnapshot
	if code := doJSON(t, "POST", srv.URL+"/api/v1/campaigns", blocker, &snap); code != http.StatusAccepted {
		t.Fatalf("blocker submit = %d", code)
	}
	// Wait for the blocker to leave the queue so exactly MaxQueued slots
	// remain.
	for deadline := time.Now().Add(30 * time.Second); ; {
		doJSON(t, "GET", srv.URL+"/api/v1/campaigns/"+snap.ID, nil, &snap)
		if snap.State == StateLeased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var queued JobSnapshot
	if code := doJSON(t, "POST", srv.URL+"/api/v1/campaigns", smallReq(), &queued); code != http.StatusAccepted {
		t.Fatalf("in-bound submit = %d, want 202", code)
	}

	body, _ := json.Marshal(smallReq())
	resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("429 body = %+v, %v", apiErr, err)
	}

	// Unblock quickly: cancel both.
	doJSON(t, "DELETE", srv.URL+"/api/v1/campaigns/"+queued.ID, nil, nil)
	doJSON(t, "DELETE", srv.URL+"/api/v1/campaigns/"+snap.ID, nil, nil)
}

// TestHTTPConcurrentSubmissions floods the API from several clients and
// checks every job reaches a terminal state — the multi-tenant smoke
// test. Kept small; skipped in -short.
func TestHTTPConcurrentSubmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several small campaigns")
	}
	s, srv := newTestServer(t)
	const n = 3
	ids := make([]string, n)
	for i := range ids {
		req := smallReq()
		req.LibOffset = uint64(i % 2 * 1000) // two of three overlap
		var snap JobSnapshot
		if code := doJSON(t, "POST", srv.URL+"/api/v1/campaigns", req, &snap); code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids[i] = snap.ID
	}
	for i, id := range ids {
		snap, err := s.Wait(id, 5*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != StateDone {
			t.Fatalf("job %d (%s) = %+v", i, id, snap)
		}
	}
}

// TestHTTPHealthzDraining: once Shutdown begins the health endpoint
// must flip to 503 "draining" so load balancers stop routing here —
// an "ok" from a draining coordinator sends tenants to a server that
// rejects their submissions.
func TestHTTPHealthzDraining(t *testing.T) {
	s := NewService(Options{Workers: 1, CacheShards: 4})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var hb healthBody
	if code := doJSON(t, "GET", srv.URL+"/healthz", nil, &hb); code != http.StatusOK || hb.Status != "ok" {
		t.Fatalf("live healthz = %d %q", code, hb.Status)
	}
	s.Shutdown()
	if code := doJSON(t, "GET", srv.URL+"/healthz", nil, &hb); code != http.StatusServiceUnavailable || hb.Status != "draining" {
		t.Fatalf("draining healthz = %d %q, want 503 draining", code, hb.Status)
	}
	// Submissions during the drain get the matching 503, not a 400.
	var apiErr apiError
	if code := doJSON(t, "POST", srv.URL+"/api/v1/campaigns", smallReq(), &apiErr); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
}

// TestHTTPListFilters pins the listing query surface: ?state=, ?limit=
// and ?after= compose, an empty listing is [] (never null), and bad
// parameters are 400s. RemoteOnly keeps every job inert so the states
// are fully deterministic.
func TestHTTPListFilters(t *testing.T) {
	s := NewService(Options{RemoteOnly: true, CacheShards: 4})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown()
	})

	// Empty listing: literally "[]".
	resp, err := http.Get(srv.URL + "/api/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(raw)); got != "[]" {
		t.Fatalf("empty listing body = %q, want []", got)
	}

	var ids []string
	for i := 0; i < 4; i++ {
		id, err := s.Submit(smallReq())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Diversify states: lease job 1 to a worker, cancel job 2.
	if g, err := s.Lease("w1", 0); err != nil || g == nil || g.JobID != ids[0] {
		t.Fatalf("lease = %+v, %v", g, err)
	}
	s.Cancel(ids[1])

	get := func(query string) []JobSnapshot {
		t.Helper()
		var list []JobSnapshot
		if code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns"+query, nil, &list); code != http.StatusOK {
			t.Fatalf("list %q = %d", query, code)
		}
		return list
	}
	if list := get("?state=queued"); len(list) != 2 || list[0].ID != ids[2] || list[1].ID != ids[3] {
		t.Fatalf("?state=queued = %+v", list)
	}
	if list := get("?state=leased"); len(list) != 1 || list[0].ID != ids[0] || list[0].Worker != "w1" {
		t.Fatalf("?state=leased = %+v", list)
	}
	if list := get("?limit=2"); len(list) != 2 || list[0].ID != ids[0] {
		t.Fatalf("?limit=2 = %+v", list)
	}
	if list := get("?after=" + ids[1]); len(list) != 2 || list[0].ID != ids[2] {
		t.Fatalf("?after = %+v", list)
	}
	if list := get("?state=queued&after=" + ids[2] + "&limit=5"); len(list) != 1 || list[0].ID != ids[3] {
		t.Fatalf("combined filters = %+v", list)
	}
	// A filter that matches nothing still yields [].
	resp, err = http.Get(srv.URL + "/api/v1/campaigns?state=failed")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.TrimSpace(string(raw)); got != "[]" {
		t.Fatalf("no-match listing body = %q, want []", got)
	}
	var apiErr apiError
	if code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns?state=bogus", nil, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("bogus state = %d, want 400", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns?limit=nope", nil, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("bogus limit = %d, want 400", code)
	}
}

// TestHTTPRetryAfterDerived: the 429 hint must reflect the backlog,
// not a hardcoded constant. Two stuck pending jobs at the default 5s
// mean over one slot put the deterministic hint at 10s.
func TestHTTPRetryAfterDerived(t *testing.T) {
	s := NewService(Options{RemoteOnly: true, CacheShards: 4, MaxQueued: 2})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown()
	})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(smallReq()); err != nil {
			t.Fatal(err)
		}
	}
	body, _ := json.Marshal(smallReq())
	resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if secs != 10 {
		t.Fatalf("Retry-After = %d, want 10 (2 pending × 5s default mean / 1 slot)", secs)
	}
}

// TestHTTPWorkerEndpointErrors walks the lease protocol's error
// surface over real HTTP: missing worker_id, unknown jobs, foreign
// workers and no-work 204s.
func TestHTTPWorkerEndpointErrors(t *testing.T) {
	s := NewService(Options{RemoteOnly: true, CacheShards: 4})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown()
	})

	// Empty queue: 204, no body.
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(map[string]any{"worker_id": "w1"})
	resp, err := http.Post(srv.URL+"/api/v1/worker/lease", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle lease = %d, want 204", resp.StatusCode)
	}
	// Missing worker_id: 400.
	var apiErr apiError
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/lease", map[string]any{}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("anonymous lease = %d, want 400", code)
	}
	// The in-process workers' reserved ID prefix: 400.
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/lease",
		map[string]any{"worker_id": localWorkerPrefix + "7"}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("reserved-prefix lease = %d, want 400", code)
	}
	// Heartbeat for an unknown job: 404.
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/heartbeat",
		map[string]any{"worker_id": "w1", "job_id": "job-999999"}, &apiErr); code != http.StatusNotFound {
		t.Fatalf("unknown-job heartbeat = %d, want 404", code)
	}

	id, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	var grant LeaseGrant
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/lease",
		map[string]any{"worker_id": "w1"}, &grant); code != http.StatusOK || grant.JobID != id {
		t.Fatalf("lease = %d %+v", code, grant)
	}
	if grant.Req.Target != "PLPro" || grant.TTLSeconds <= 0 || grant.ExpiresAt.IsZero() || grant.Token == "" {
		t.Fatalf("grant incomplete: %+v", grant)
	}
	// A foreign worker's heartbeat and complete are 409s — and so is
	// the holder's own ID without the lease token, which anyone can
	// read out of the public job listing.
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/heartbeat",
		map[string]any{"worker_id": "w2", "token": grant.Token, "job_id": id}, &apiErr); code != http.StatusConflict {
		t.Fatalf("foreign heartbeat = %d, want 409", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/heartbeat",
		map[string]any{"worker_id": "w1", "job_id": id}, &apiErr); code != http.StatusConflict {
		t.Fatalf("tokenless heartbeat = %d, want 409", code)
	}
	// ... and a rejected complete must not smuggle cache deltas into
	// the shared caches (score poisoning would silently break the
	// byte-identical rerun guarantee).
	bogus := []ScoreEntry{{Target: "PLPro", FP: molForTest(1).FP(), Result: mockResult(1)}}
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/complete",
		map[string]any{"worker_id": "w1", "token": "forged", "job_id": id, "canceled": true, "Scores": bogus}, &apiErr); code != http.StatusConflict {
		t.Fatalf("forged-token complete = %d, want 409", code)
	}
	if st := s.ScoreCacheStats(); st.Entries != 0 {
		t.Fatalf("rejected complete wrote %d entries into the shared score cache", st.Entries)
	}
	// The holder heartbeats fine, and its complete lands.
	var hb heartbeatResponse
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/heartbeat",
		map[string]any{"worker_id": "w1", "token": grant.Token, "job_id": id, "stage": "s1-dock", "progress": 0.5}, &hb); code != http.StatusOK {
		t.Fatalf("holder heartbeat = %d", code)
	}
	// Its delta is merged only where it belongs: entries under another
	// target than the job's (served here or not) and entries without a
	// pose are dropped without failing the completion. What older
	// workers also shipped — feature vectors, and feature-cache stats
	// and stage timings beside the score-cache stats — is accepted and
	// ignored.
	delta := []ScoreEntry{
		{Target: "PLPro", FP: molForTest(1).FP(), Result: mockResult(1)},
		{Target: "3CLPro", FP: molForTest(2).FP(), Result: mockResult(2)},
		{Target: "no-such-target", FP: molForTest(3).FP(), Result: mockResult(3)},
		{Target: "", FP: molForTest(4).FP(), Result: mockResult(4)},
		{Target: "PLPro", FP: molForTest(5).FP(), Result: dock.Result{MolID: 5, Score: -5}},
	}
	var snap JobSnapshot
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/complete",
		map[string]any{"worker_id": "w1", "token": grant.Token, "job_id": id,
			"summary": ResultSummary{ScientificYield: 0.5}, "scores": delta,
			"features": []FeatureEntry{{ID: 1, Vec: []float64{1, 2, 3}}},
			"stats": map[string]any{
				"score_cache":   CacheStats{Hits: 3, Misses: 2},
				"feature_cache": CacheStats{Hits: 300, Misses: 1},
				"timings":       []map[string]any{{"stage": "S1", "seconds": 1.5}},
				"wall_seconds":  2.5,
			}}, &snap); code != http.StatusOK {
		t.Fatalf("holder complete = %d", code)
	}
	if snap.State != StateDone || snap.Worker != "w1" {
		t.Fatalf("completed snapshot = %+v", snap)
	}
	if st := s.ScoreCacheStats(); st.Entries != 1 {
		t.Fatalf("score cache holds %d entries after the merge, want only the job's own target's 1", st.Entries)
	}
	if _, ok := s.ScoreCacheForTarget("PLPro").Get(molForTest(1)); !ok {
		t.Fatal("the valid delta entry was not merged")
	}
	if hits, misses := s.met.workerCacheHits.With("score").Value(), s.met.workerCacheMisses.With("score").Value(); hits != 3 || misses != 2 {
		t.Fatalf("worker score-cache stats folded as %v hits, %v misses, want 3 and 2", hits, misses)
	}
	if n := s.met.funnelRuns.Value(); n != 0 {
		t.Fatalf("an older worker's stats timings were folded into the funnel metrics (%v runs)", n)
	}
	// A complete that names no outcome is a 400.
	id2, _ := s.Submit(smallReq())
	doJSON(t, "POST", srv.URL+"/api/v1/worker/lease", map[string]any{"worker_id": "w1"}, &grant)
	if code := doJSON(t, "POST", srv.URL+"/api/v1/worker/complete",
		map[string]any{"worker_id": "w1", "job_id": id2}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("outcome-less complete = %d, want 400", code)
	}
}
