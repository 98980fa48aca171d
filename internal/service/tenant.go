// First-class tenancy for the campaign service: every submission
// belongs to a named tenant, and the scheduler arbitrates between
// tenants with deficit-round-robin (DRR) weighted-fair scheduling
// instead of one global FIFO — so a tenant flooding the queue cannot
// starve everyone else, the failure mode any shared funnel service
// hits first at fleet scale.
//
// The pieces, layer by layer:
//
//   - Identity: SubmitRequest.Tenant (or the X-Tenant header) names the
//     submitter; empty means DefaultTenant, so legacy clients, journals
//     and state dirs keep working unchanged. Tenant names are validated
//     (they become metric labels and journal fields).
//   - Admission: per-tenant MaxQueued replaces the global pending bound,
//     and a per-tenant token bucket rate-limits submissions (HTTP 429
//     with a tenant-derived Retry-After).
//   - Scheduling: each tenant has its own queue (priority-ordered, FIFO
//     within a priority); every lease, in-process or remote, is granted
//     through one DRR arbiter honoring configurable weights and
//     per-tenant running-concurrency caps.
//   - Preemption: a starved tenant whose head job carries Priority > 0
//     may revoke the youngest leased job of the most over-share tenant,
//     reusing the lease-expiry requeue machinery — the preempted job
//     re-enters its tenant's queue under its original ID and reruns
//     byte-identically (Seed and LibOffset ride along).
package service

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// DefaultTenant is the tenant legacy (tenant-less) submissions belong
// to. Pre-tenancy journals replay into it, so old state dirs upgrade
// in place.
const DefaultTenant = "default"

// Tenant-name and priority bounds. Names become Prometheus label
// values and journal fields, so they are restricted to a safe charset;
// priorities are a small ladder, not an unbounded knob.
const (
	maxTenantLen = 64
	MaxPriority  = 9
)

// validateTenant checks a tenant name: 1–64 chars of [A-Za-z0-9._-].
// The empty name is valid at the API boundary (it means DefaultTenant)
// but must be normalized before reaching the scheduler.
func validateTenant(name string) error {
	if name == "" {
		return nil
	}
	if len(name) > maxTenantLen {
		return fmt.Errorf("service: tenant name longer than %d chars", maxTenantLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("service: tenant name %q has invalid character %q (allowed: letters, digits, '.', '_', '-')", name, c)
		}
	}
	return nil
}

// normalizeTenant maps the empty name to DefaultTenant.
func normalizeTenant(name string) string {
	if name == "" {
		return DefaultTenant
	}
	return name
}

// TenantLimits configures one tenant's share of the service. The zero
// value means "all defaults": weight 1, the service-wide queue bound,
// no concurrency cap, no submit rate limit.
type TenantLimits struct {
	// Weight is the tenant's DRR weight: over contended slots, tenants
	// receive job-slots proportionally to their weights. 0 means 1.
	Weight int
	// MaxQueued bounds this tenant's pending queue; overflow submissions
	// fail with ErrQueueFull (HTTP 429). 0 inherits Options.MaxQueued
	// (which is per-tenant now); negative means unbounded even when the
	// service-wide default is set.
	MaxQueued int
	// MaxRunning caps how many of the tenant's jobs may execute at once
	// (its outstanding leases, in-process and remote). 0 means unbounded.
	MaxRunning int
	// SubmitPerSec is the tenant's token-bucket submit rate; 0 disables
	// rate limiting for the tenant.
	SubmitPerSec float64
	// SubmitBurst is the bucket depth; 0 means max(1, ceil(SubmitPerSec)).
	SubmitBurst int
}

// withDefaults resolves zero fields against the service-wide defaults.
func (l TenantLimits) withDefaults(d TenantLimits) TenantLimits {
	if l.Weight <= 0 {
		l.Weight = d.Weight
	}
	if l.Weight <= 0 {
		l.Weight = 1
	}
	if l.MaxQueued == 0 {
		l.MaxQueued = d.MaxQueued
	}
	if l.MaxRunning == 0 {
		l.MaxRunning = d.MaxRunning
	}
	if l.SubmitPerSec == 0 {
		l.SubmitPerSec = d.SubmitPerSec
	}
	if l.SubmitBurst == 0 {
		l.SubmitBurst = d.SubmitBurst
	}
	return l
}

// tenantQueue is the scheduler's per-tenant state: the pending queue
// (priority-ordered, FIFO within a priority), the DRR deficit, and the
// in-flight tally the concurrency cap enforces. All fields are guarded
// by scheduler.mu.
type tenantQueue struct {
	name    string
	weight  int
	deficit int // DRR credit: job-slots this tenant may take before yielding
	// maxQueued/maxRunning are the resolved bounds (0 = unbounded).
	maxQueued  int
	maxRunning int
	pending    []*job
	// inflight counts the tenant's jobs currently executing: its leases,
	// in-process and remote. The concurrency cap gates on it, and
	// the preemption arbiter compares it against the tenant's fair share.
	inflight int
}

// eligible reports whether the tenant can hand out a job right now.
func (tq *tenantQueue) eligible() bool {
	return len(tq.pending) > 0 && (tq.maxRunning <= 0 || tq.inflight < tq.maxRunning)
}

// push inserts a job in priority order: higher Priority first, FIFO
// within equal priorities. Legacy submissions (Priority 0) therefore
// keep exact submission order.
func (tq *tenantQueue) push(j *job) {
	p := j.req.Priority
	i := len(tq.pending)
	for i > 0 && tq.pending[i-1].req.Priority < p {
		i--
	}
	tq.pending = append(tq.pending, nil)
	copy(tq.pending[i+1:], tq.pending[i:])
	tq.pending[i] = j
}

// pushFront re-enqueues a job at the head of its tenant's queue — the
// lease-expiry and preemption requeue path. The job was dispatched
// before anything currently pending for this tenant, so it runs first.
func (tq *tenantQueue) pushFront(j *job) {
	tq.pending = append([]*job{j}, tq.pending...)
}

// remove drops a job from the pending queue (eager cancel removal);
// reports whether it was present.
func (tq *tenantQueue) remove(j *job) bool {
	for i, p := range tq.pending {
		if p == j {
			tq.pending = append(tq.pending[:i], tq.pending[i+1:]...)
			return true
		}
	}
	return false
}

// ErrRateLimited is returned by Submit when the tenant's token bucket
// is empty (HTTP surfaces it as 429 with a Retry-After derived from
// the bucket's refill rate).
var ErrRateLimited = errors.New("service: tenant submit rate exceeded")

// RateLimitError carries the tenant and the wait until the bucket
// refills; errors.Is(err, ErrRateLimited) matches it.
type RateLimitError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("service: tenant %q submit rate exceeded, retry in %s",
		e.Tenant, e.RetryAfter.Round(time.Millisecond))
}

// Is matches the ErrRateLimited sentinel.
func (e *RateLimitError) Is(target error) bool { return target == ErrRateLimited }

// tokenBucket is one tenant's submit-rate state.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// tenantLimiter applies per-tenant token-bucket submit rate limits.
// Its mutex is independent of the scheduler's (it is only ever held
// alone, before the submit reaches the scheduler) and is declared last
// in the project lock order.
type tenantLimiter struct {
	mu      sync.Mutex
	limits  func(tenant string) TenantLimits
	buckets map[string]*tokenBucket
}

func newTenantLimiter(limits func(tenant string) TenantLimits) *tenantLimiter {
	return &tenantLimiter{limits: limits, buckets: make(map[string]*tokenBucket)}
}

// allow takes one token from the tenant's bucket. When the bucket is
// empty it returns false and how long until the next token — the
// Retry-After the 429 carries, derived from the tenant's own refill
// rate rather than a global constant.
func (tl *tenantLimiter) allow(tenant string, now time.Time) (bool, time.Duration) {
	lim := tl.limits(tenant)
	if lim.SubmitPerSec <= 0 {
		return true, 0
	}
	burst := float64(lim.SubmitBurst)
	if burst <= 0 {
		burst = math.Ceil(lim.SubmitPerSec)
		if burst < 1 {
			burst = 1
		}
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	b := tl.buckets[tenant]
	if b == nil {
		b = &tokenBucket{tokens: burst, last: now}
		tl.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+dt*lim.SubmitPerSec)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / lim.SubmitPerSec * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}
