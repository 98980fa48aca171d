// Tenancy tests: DRR fairness under a flood, per-tenant quotas and
// concurrency caps, preemption of over-share leases, submit rate
// limiting, eager cancel removal, and the tenant-aware HTTP surface.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tenantReq is smallReq stamped with a tenant (and optional priority).
func tenantReq(tenant string, priority int) SubmitRequest {
	req := smallReq()
	req.Tenant = tenant
	req.Priority = priority
	return req
}

func TestTenantValidation(t *testing.T) {
	for _, name := range []string{"", "default", "acme", "team-a.b_c", "X9"} {
		if err := validateTenant(name); err != nil {
			t.Errorf("validateTenant(%q) = %v, want nil", name, err)
		}
	}
	long := make([]byte, maxTenantLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, name := range []string{"has space", "sla/sh", "ünïcode", string(long)} {
		if err := validateTenant(name); err == nil {
			t.Errorf("validateTenant(%q) accepted", name)
		}
	}
	if got := normalizeTenant(""); got != DefaultTenant {
		t.Fatalf("normalizeTenant(\"\") = %q", got)
	}
	if got := normalizeTenant("acme"); got != "acme" {
		t.Fatalf("normalizeTenant(acme) = %q", got)
	}

	// The service rejects bad identities and out-of-range priorities
	// before touching the scheduler.
	s := NewService(Options{RemoteOnly: true, CacheShards: 4})
	defer s.Shutdown()
	if _, err := s.Submit(tenantReq("no/slash", 0)); err == nil {
		t.Fatal("invalid tenant name accepted")
	}
	if _, err := s.Submit(tenantReq("acme", MaxPriority+1)); err == nil {
		t.Fatal("out-of-range priority accepted")
	}
	if _, err := s.Submit(tenantReq("acme", -1)); err == nil {
		t.Fatal("negative priority accepted")
	}
}

// TestDRRFairnessUnderFlood is the fairness acceptance test: with two
// equal-weight tenants, one flooding 50 submissions ahead of a light
// tenant's single job, the light job is granted within two job-slots.
func TestDRRFairnessUnderFlood(t *testing.T) {
	s := remoteScheduler(time.Hour, nil)
	defer s.shutdown()
	now := time.Now()
	for i := 0; i < 50; i++ {
		if _, err := s.submit(tenantReq("flood", 0), now, ""); err != nil {
			t.Fatal(err)
		}
	}
	lightID, err := s.submit(tenantReq("light", 0), now, "")
	if err != nil {
		t.Fatal(err)
	}
	granted := -1
	for i := 0; i < 2; i++ {
		j, err := s.lease("w1", 0, time.Now())
		if err != nil || j == nil {
			t.Fatalf("grant %d = %v, %v", i, j, err)
		}
		if j.id == lightID {
			granted = i
			break
		}
	}
	if granted < 0 {
		t.Fatalf("light tenant's job not scheduled within 2 job-slots of a 50-job flood")
	}
}

// TestDRRWeightedShares pins the proportional split: weights 3:1 yield
// a heavy-heavy-heavy-light grant cadence over contended slots.
func TestDRRWeightedShares(t *testing.T) {
	cfg := schedConfig{leaseTTL: time.Hour,
		limits: func(tenant string) TenantLimits {
			if tenant == "heavy" {
				return TenantLimits{Weight: 3}
			}
			return TenantLimits{}
		}}
	s := newScheduler(cfg)
	defer s.shutdown()
	now := time.Now()
	for i := 0; i < 8; i++ {
		if _, err := s.submit(tenantReq("heavy", 0), now, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := s.submit(tenantReq("light", 0), now, ""); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 8; i++ {
		j, err := s.lease("w1", 0, time.Now())
		if err != nil || j == nil {
			t.Fatalf("grant %d = %v, %v", i, j, err)
		}
		got = append(got, j.tenant)
	}
	want := []string{"heavy", "heavy", "heavy", "light", "heavy", "heavy", "heavy", "light"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
}

// TestTenantPriorityOrdering: within one tenant's queue, higher
// Priority runs first; equal priorities stay FIFO.
func TestTenantPriorityOrdering(t *testing.T) {
	s := remoteScheduler(time.Hour, nil)
	defer s.shutdown()
	now := time.Now()
	low1, _ := s.submit(tenantReq("acme", 0), now, "")
	low2, _ := s.submit(tenantReq("acme", 0), now, "")
	high, _ := s.submit(tenantReq("acme", 5), now, "")
	var got []string
	for i := 0; i < 3; i++ {
		j, err := s.lease("w1", 0, time.Now())
		if err != nil || j == nil {
			t.Fatalf("grant %d = %v, %v", i, j, err)
		}
		got = append(got, j.id)
	}
	want := []string{high, low1, low2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
}

// TestTenantMaxRunningCap: a tenant at its running-concurrency cap is
// skipped — its queued work waits even with free slots — and resumes
// when an in-flight job completes.
func TestTenantMaxRunningCap(t *testing.T) {
	cfg := schedConfig{leaseTTL: time.Hour,
		limits: func(tenant string) TenantLimits {
			if tenant == "capped" {
				return TenantLimits{MaxRunning: 1}
			}
			return TenantLimits{}
		}}
	s := newScheduler(cfg)
	defer s.shutdown()
	now := time.Now()
	first, _ := s.submit(tenantReq("capped", 0), now, "")
	second, _ := s.submit(tenantReq("capped", 0), now, "")
	j, err := s.lease("w1", 0, time.Now())
	if err != nil || j == nil || j.id != first {
		t.Fatalf("first grant = %v, %v", j, err)
	}
	if extra, err := s.lease("w2", 0, time.Now()); err != nil || extra != nil {
		t.Fatalf("lease over the cap = %v, %v; want nil, nil", extra, err)
	}
	if err := s.complete("w1", tokenOf(t, s, first), first, StateDone, "", &ResultSummary{}, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	j2, err := s.lease("w2", 0, time.Now())
	if err != nil || j2 == nil || j2.id != second {
		t.Fatalf("post-completion grant = %v, %v, want %s", j2, err, second)
	}
}

// TestTenantMaxQueuedIsolation: one tenant filling its own pending
// bound gets ErrQueueFull while another tenant still submits freely —
// the bound is per tenant, not global.
func TestTenantMaxQueuedIsolation(t *testing.T) {
	cfg := schedConfig{leaseTTL: time.Hour, maxQueued: 2}
	s := newScheduler(cfg)
	defer s.shutdown()
	now := time.Now()
	for i := 0; i < 2; i++ {
		if _, err := s.submit(tenantReq("noisy", 0), now, ""); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.submit(tenantReq("noisy", 0), now, "")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound submit = %v, want ErrQueueFull", err)
	}
	if want := `tenant "noisy" has 2 jobs pending, max 2`; !strings.Contains(err.Error(), want) {
		t.Fatalf("over-bound submit error = %q, want it to say %q", err, want)
	}
	if v := s.met.tenantRejections.With("noisy", rejectQueueFull).Value(); v != 1 {
		t.Fatalf("tenant_rejections{noisy,queue_full} = %v, want 1", v)
	}
	if _, err := s.submit(tenantReq("quiet", 0), now, ""); err != nil {
		t.Fatalf("other tenant blocked by noisy tenant's bound: %v", err)
	}
}

// TestCancelWhileQueuedLeavesQueueEagerly: a canceled queued job exits
// the pending queue immediately, so queue depth, the per-tenant bound
// and the Retry-After hint stop counting it — no dead entry lingers
// until a worker would have popped it.
func TestCancelWhileQueuedLeavesQueueEagerly(t *testing.T) {
	cfg := schedConfig{leaseTTL: time.Hour, maxQueued: 3}
	s := newScheduler(cfg)
	defer s.shutdown()
	now := time.Now()
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.submit(tenantReq("acme", 0), now, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := s.cancelJob(ids[1], ""); err != nil {
		t.Fatal(err)
	}
	if got := s.queueDepth(); got != 2 {
		t.Fatalf("queueDepth after cancel = %d, want 2", got)
	}
	if got := s.tenantQueueDepths()["acme"]; got != 2 {
		t.Fatalf("tenant depth after cancel = %d, want 2", got)
	}
	// The freed slot is usable again at once.
	if _, err := s.submit(tenantReq("acme", 0), now, ""); err != nil {
		t.Fatalf("submit into freed slot = %v", err)
	}
	// Grants skip the canceled job entirely.
	for i, want := range []string{ids[0], ids[2]} {
		j, err := s.lease("w1", 0, time.Now())
		if err != nil || j == nil || j.id != want {
			t.Fatalf("grant %d = %v, %v, want %s", i, j, err, want)
		}
	}
}

// TestPreemptionRevokesYoungestOverShare drives the arbiter directly:
// a starved priority job revokes the over-share tenant's youngest
// lease, the revoked job re-enters its owner's queue front with the
// requeue journaled, and the freed slot goes to the starved tenant.
func TestPreemptionRevokesYoungestOverShare(t *testing.T) {
	jl := &memJournal{}
	cfg := schedConfig{leaseTTL: time.Hour,
		preemptAfter: time.Second, record: jl.record}
	s := newScheduler(cfg)
	defer s.shutdown()
	t0 := time.Now()
	h1, _ := s.submit(tenantReq("hog", 0), t0, "")
	h2, _ := s.submit(tenantReq("hog", 0), t0.Add(10*time.Millisecond), "")
	if j, err := s.lease("w1", 0, t0.Add(20*time.Millisecond)); err != nil || j == nil || j.id != h1 {
		t.Fatalf("lease h1 = %v, %v", j, err)
	}
	if j, err := s.lease("w2", 0, t0.Add(30*time.Millisecond)); err != nil || j == nil || j.id != h2 {
		t.Fatalf("lease h2 = %v, %v", j, err)
	}
	vip, err := s.submit(tenantReq("vip", 2), t0.Add(40*time.Millisecond), "")
	if err != nil {
		t.Fatal(err)
	}

	// Not yet waited past preemptAfter: nothing moves.
	s.maybePreempt(t0.Add(500 * time.Millisecond))
	if st := stateOf(t, s, h2); st != StateLeased {
		t.Fatalf("premature preemption: h2 = %s", st)
	}

	s.maybePreempt(t0.Add(2 * time.Second))
	if st := stateOf(t, s, h2); st != StateQueued {
		t.Fatalf("h2 after preemption = %s, want queued", st)
	}
	if st := stateOf(t, s, h1); st != StateLeased {
		t.Fatalf("h1 (older lease) = %s, want still leased", st)
	}
	if got, want := jl.kinds(h2), []eventKind{evSubmitted, evLeased, evRequeued}; !equalKinds(got, want) {
		t.Fatalf("h2 journal = %v, want %v", got, want)
	}
	if v := s.met.tenantPreemptions.With("hog").Value(); v != 1 {
		t.Fatalf("tenant_preemptions{hog} = %v, want 1", v)
	}
	// The evicted worker discovers the revocation on its next heartbeat.
	if _, err := s.heartbeat("w2", tokenOf(t, s, h1), h2, "", 0, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("evicted heartbeat = %v, want ErrLeaseLost", err)
	}
	// The freed slot goes to the starved tenant, then hog's requeued
	// job — with its request untouched, so the rerun stays identical.
	j, err := s.lease("w3", 0, time.Now())
	if err != nil || j == nil || j.id != vip {
		t.Fatalf("post-preemption grant = %v, %v, want %s", j, err, vip)
	}
	j2, err := s.lease("w4", 0, time.Now())
	if err != nil || j2 == nil || j2.id != h2 {
		t.Fatalf("second grant = %v, %v, want %s", j2, err, h2)
	}
	if j2.req.Seed != smallReq().Seed || j2.req.LibOffset != smallReq().LibOffset {
		t.Fatalf("requeued request mutated: %+v", j2.req)
	}

	// A starved tenant already at fair share cannot keep stealing: with
	// one of two slots, a second preemption attempt is a no-op.
	s.maybePreempt(t0.Add(10 * time.Second))
	if st := stateOf(t, s, h1); st != StateLeased {
		t.Fatalf("h1 preempted despite vip at fair share: %s", st)
	}
}

// TestTenantRateLimiter covers the token bucket in isolation: burst,
// refill, a positive wait hint, and the disabled (zero-rate) case.
func TestTenantRateLimiter(t *testing.T) {
	tl := newTenantLimiter(func(tenant string) TenantLimits {
		if tenant == "metered" {
			return TenantLimits{SubmitPerSec: 2, SubmitBurst: 2}
		}
		return TenantLimits{}
	})
	t0 := time.Now()
	for i := 0; i < 2; i++ {
		if ok, _ := tl.allow("metered", t0); !ok {
			t.Fatalf("burst submit %d rejected", i)
		}
	}
	ok, wait := tl.allow("metered", t0)
	if ok {
		t.Fatal("drained bucket allowed a submit")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait hint = %v, want (0, 1s]", wait)
	}
	// Half a second refills one token at 2/s.
	if ok, _ := tl.allow("metered", t0.Add(600*time.Millisecond)); !ok {
		t.Fatal("refilled bucket still rejecting")
	}
	// No configured rate: never limited.
	for i := 0; i < 100; i++ {
		if ok, _ := tl.allow("unmetered", t0); !ok {
			t.Fatal("unmetered tenant rate limited")
		}
	}
}

// TestHTTPTenant429Matrix pins both 429 shapes per tenant over real
// HTTP: a rate-limited tenant and a queue-full tenant each get their
// own Retry-After while an unaffected tenant keeps submitting 202s.
func TestHTTPTenant429Matrix(t *testing.T) {
	s := NewService(Options{RemoteOnly: true, CacheShards: 4,
		Tenants: map[string]TenantLimits{
			"metered": {SubmitPerSec: 0.001, SubmitBurst: 1},
			"boxed":   {MaxQueued: 1},
		}})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown()
	})

	post := func(req SubmitRequest) *http.Response {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	expect := func(req SubmitRequest, code int) *http.Response {
		t.Helper()
		resp := post(req)
		if resp.StatusCode != code {
			t.Fatalf("submit tenant=%q = %d, want %d", req.Tenant, resp.StatusCode, code)
		}
		return resp
	}

	expect(tenantReq("metered", 0), http.StatusAccepted).Body.Close()
	resp := expect(tenantReq("metered", 0), http.StatusTooManyRequests)
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("rate-limit Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("429 body = %+v, %v", apiErr, err)
	}
	resp.Body.Close()

	expect(tenantReq("boxed", 0), http.StatusAccepted).Body.Close()
	resp = expect(tenantReq("boxed", 0), http.StatusTooManyRequests)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 429 without Retry-After")
	}
	resp.Body.Close()

	// The limits above are per tenant: an unconfigured tenant is
	// untouched by either.
	expect(tenantReq("bystander", 0), http.StatusAccepted).Body.Close()
	expect(tenantReq("bystander", 0), http.StatusAccepted).Body.Close()

	// Both rejection reasons surfaced in the tenant-labeled counter.
	if v := s.met.tenantRejections.With("metered", rejectRateLimited).Value(); v != 1 {
		t.Fatalf("tenant_rejections{metered,rate_limited} = %v, want 1", v)
	}
	if v := s.met.tenantRejections.With("boxed", rejectQueueFull).Value(); v != 1 {
		t.Fatalf("tenant_rejections{boxed,queue_full} = %v, want 1", v)
	}
}

// TestHTTPTenantHeaderAndListing: the X-Tenant header stands in for an
// absent body field (body wins when both are present), snapshots carry
// the tenant, and ?tenant= filters the listing, composing with ?state=
// and ?limit=.
func TestHTTPTenantHeaderAndListing(t *testing.T) {
	s := NewService(Options{RemoteOnly: true, CacheShards: 4})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Shutdown()
	})

	submit := func(req SubmitRequest, header string) JobSnapshot {
		t.Helper()
		body, _ := json.Marshal(req)
		hreq, _ := http.NewRequest("POST", srv.URL+"/api/v1/campaigns", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		if header != "" {
			hreq.Header.Set(tenantHeader, header)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d", resp.StatusCode)
		}
		var snap JobSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	if snap := submit(smallReq(), "gateway"); snap.Tenant != "gateway" {
		t.Fatalf("header-only tenant = %q, want gateway", snap.Tenant)
	}
	if snap := submit(tenantReq("body", 0), "gateway"); snap.Tenant != "body" {
		t.Fatalf("body+header tenant = %q, want body (body wins)", snap.Tenant)
	}
	if snap := submit(smallReq(), ""); snap.Tenant != DefaultTenant {
		t.Fatalf("legacy tenant = %q, want %q", snap.Tenant, DefaultTenant)
	}
	a1 := submit(tenantReq("acme", 0), "")
	a2 := submit(tenantReq("acme", 0), "")

	get := func(query string) []JobSnapshot {
		t.Helper()
		var list []JobSnapshot
		if code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns"+query, nil, &list); code != http.StatusOK {
			t.Fatalf("list %q = %d", query, code)
		}
		return list
	}
	if list := get("?tenant=acme"); len(list) != 2 || list[0].ID != a1.ID || list[1].ID != a2.ID {
		t.Fatalf("?tenant=acme = %+v", list)
	}
	if list := get("?tenant=acme&state=queued&limit=1"); len(list) != 1 || list[0].ID != a1.ID {
		t.Fatalf("composed tenant filter = %+v", list)
	}
	if list := get("?tenant=acme&after=" + a1.ID); len(list) != 1 || list[0].ID != a2.ID {
		t.Fatalf("?tenant&after = %+v", list)
	}
	if list := get("?tenant=nobody"); len(list) != 0 {
		t.Fatalf("?tenant=nobody = %+v", list)
	}
	var apiErr apiError
	if code := doJSON(t, "GET", srv.URL+"/api/v1/campaigns?tenant=no/slash", nil, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("invalid ?tenant = %d, want 400", code)
	}
}

// TestReplayJournalTenants: schema-v2 events restore their tenant and
// priority; legacy (pre-tenancy) events fall back to the request's
// tenant field and finally to the default tenant, so old journals keep
// replaying byte-identically.
func TestReplayJournalTenants(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	legacy := smallReq()
	tagged := tenantReq("acme", 3)
	events := []journalEvent{
		// Legacy event: no Tenant on the event or the request.
		{Kind: evSubmitted, Job: "job-000001", Time: t0, Req: &legacy},
		// Schema v2: tenant and priority journaled on the event.
		{Kind: evSubmitted, Job: "job-000002", Time: t0, Req: &tagged, Tenant: "acme", Priority: 3},
		// Transitional: tenant only inside the retained request.
		{Kind: evSubmitted, Job: "job-000003", Time: t0, Req: &tagged},
	}
	jobs, _ := replayJournal(events, nil)
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	byID := map[string]*job{}
	for _, j := range jobs {
		byID[j.id] = j
	}
	if j := byID["job-000001"]; j.tenant != DefaultTenant {
		t.Fatalf("legacy job tenant = %q, want %q", j.tenant, DefaultTenant)
	}
	if j := byID["job-000002"]; j.tenant != "acme" || j.req.Priority != 3 {
		t.Fatalf("v2 job = tenant %q priority %d", j.tenant, j.req.Priority)
	}
	if j := byID["job-000003"]; j.tenant != "acme" {
		t.Fatalf("transitional job tenant = %q, want acme", j.tenant)
	}

	// Restored jobs land in their tenants' queues — fairness survives a
	// restart, not just fresh submissions.
	s := remoteScheduler(time.Hour, nil)
	defer s.shutdown()
	s.restore(jobs, 3)
	depths := s.tenantQueueDepths()
	if depths[DefaultTenant] != 1 || depths["acme"] != 2 {
		t.Fatalf("restored tenant depths = %v", depths)
	}
}

// TestTenantRetryAfterUsesOwnBacklog: the 429 hint a tenant sees is
// derived from its own queue against its weighted slot share, not from
// the global backlog.
func TestTenantRetryAfterUsesOwnBacklog(t *testing.T) {
	s := remoteScheduler(time.Hour, nil)
	s.workerSlots = 2
	defer s.shutdown()
	s.recordDuration(10 * time.Second)
	now := time.Now()
	for i := 0; i < 6; i++ {
		if _, err := s.submit(tenantReq("flood", 0), now, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.submit(tenantReq("light", 0), now, ""); err != nil {
		t.Fatal(err)
	}
	// flood: 6 pending × 10s over its half of 2 slots (weight 1 of 2) = 60s.
	if got := s.retryAfterSecondsFor("flood"); got != 60 {
		t.Fatalf("flood Retry-After = %d, want 60", got)
	}
	// light: 1 pending × 10s over its 1-slot share = 10s.
	if got := s.retryAfterSecondsFor("light"); got != 10 {
		t.Fatalf("light Retry-After = %d, want 10", got)
	}
	// Unknown tenant: nothing queued, minimum hint.
	if got := s.retryAfterSecondsFor("stranger"); got != 1 {
		t.Fatalf("unknown-tenant Retry-After = %d, want 1", got)
	}
}
