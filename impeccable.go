// Package impeccable is the public API of the IMPECCABLE reproduction: an
// integrated modeling pipeline for computational drug discovery coupling
// an ML docking surrogate (ML1), high-throughput docking (S1), ML-driven
// adaptive molecular dynamics (S2/DeepDriveMD) and ensemble binding
// free-energy estimation (S3/ESMACS) over a scalable workflow runtime
// (EnTK + pilot + RAPTOR).
//
// Quick start:
//
//	cfg := impeccable.DefaultConfig(impeccable.PLPro())
//	cfg.LibrarySize = 2000
//	cfg.FastProtocols = true
//	res, err := impeccable.RunCampaign(cfg)
//
// The package re-exports the stable subset of the internal packages; see
// the examples/ directory for complete programs and DESIGN.md for the
// system inventory.
package impeccable

import (
	"impeccable/internal/campaign"
	"impeccable/internal/chem"
	"impeccable/internal/receptor"
	"impeccable/internal/service"
	"impeccable/internal/service/worker"
)

// Re-exported core types. Aliases give external callers full access to
// the underlying types (fields and methods) without importing internal
// packages directly.
type (
	// Config sizes one campaign iteration (the IMPECCABLE funnel).
	Config = campaign.Config
	// Result is a completed campaign iteration's artifacts.
	Result = campaign.Result
	// TopComparison pairs CG and FG estimates for a top compound.
	TopComparison = campaign.TopComparison
	// FunnelStats counts compounds at each stage and carries the
	// per-stage wall-clock timings and overlap ratio.
	FunnelStats = campaign.FunnelStats
	// FunnelCounts is the path-invariant projection of FunnelStats
	// (identical across the sequential and EnTK drivers).
	FunnelCounts = campaign.FunnelCounts
	// SimConfig sizes a Summit-scale simulated run (Fig. 7).
	SimConfig = campaign.SimConfig
	// SimResult is a simulated run's utilization/overhead summary.
	SimResult = campaign.SimResult
	// Target is a receptor with pocket geometry and affinity oracle.
	Target = receptor.Target
	// Molecule is a synthetic compound.
	Molecule = chem.Molecule
	// Library is a lazily generated compound library.
	Library = chem.Library
	// MethodCost is one row of the Table 2 cost ladder.
	MethodCost = campaign.MethodCost
	// DockingScaleResult is one point of the docking scaling curve.
	DockingScaleResult = campaign.DockingScaleResult
)

// DefaultConfig returns a laptop-scale campaign configuration against the
// given target, preserving the paper's stage ratios.
func DefaultConfig(t *Target) Config { return campaign.DefaultConfig(t) }

// RunCampaign executes one IMPECCABLE iteration: ML1 → S1 → S3-CG → S2 →
// S3-FG with surrogate training and outlier feedback.
func RunCampaign(cfg Config) (*Result, error) { return campaign.Run(cfg) }

// RunCampaignViaEnTK executes the same funnel codified as a five-stage
// EnTK pipeline scheduled by a real pilot over the host's cores — the
// paper's production programming model (§6.1), including the runtime
// adaptivity that appends the FG stage from S2's selections.
func RunCampaignViaEnTK(cfg Config) (*Result, error) { return campaign.RunViaEnTK(cfg) }

// RunCampaignStreaming runs RunCampaign; the streaming dataflow it
// selected was removed.
//
// Deprecated: use RunCampaign.
func RunCampaignStreaming(cfg Config) (*Result, error) { return RunCampaign(cfg) }

// RunIterations executes n successive campaign iterations with the
// surrogate retrained each round on all accumulated docking labels (the
// active-learning loop of §8).
func RunIterations(cfg Config, n int) ([]*Result, []IterationSummary, error) {
	return campaign.RunIterations(cfg, n)
}

// IterationSummary captures the per-iteration trajectory of the
// active-learning campaign.
type IterationSummary = campaign.IterationSummary

// RunSim executes the integrated (S3-CG)-(S2)-(S3-FG) workload in
// simulated Summit time, producing the Fig. 7 utilization trace.
func RunSim(cfg SimConfig) SimResult { return campaign.RunSim(cfg) }

// DefaultSimConfig returns a medium Summit slice for RunSim.
func DefaultSimConfig() SimConfig { return campaign.DefaultSimConfig() }

// SimDockingAtScale reproduces the §8 docking-throughput claims on the
// RAPTOR overlay in simulated time.
func SimDockingAtScale(nodes, docks int, seed uint64) DockingScaleResult {
	return campaign.SimDockingAtScale(nodes, docks, seed)
}

// Table2 returns the paper's published method-cost ladder.
func Table2() []MethodCost { return campaign.Table2() }

// StandardTargets returns the four SARS-CoV-2 targets of the paper
// (3CLPro, PLPro, ADRP, NSP15).
func StandardTargets() []*Target { return receptor.StandardTargets() }

// PLPro returns the papain-like protease target (PDB 6W9C) used for the
// paper's headline results (Figs. 4-6).
func PLPro() *Target { return receptor.PLPro() }

// StandardLibraries builds the OZD and ORD screening libraries at the
// given scale (1.0 = the paper's 6.5 M compounds with 1.5 M overlap).
func StandardLibraries(seed uint64, scale float64) (ozd, ord *Library) {
	return chem.StandardLibraries(seed, scale)
}

// MoleculeFromID deterministically materializes a molecule.
func MoleculeFromID(id uint64) *Molecule { return chem.FromID(id) }

// Campaign service types: the long-lived multi-tenant evaluation server
// (job queue + bounded worker pool + sharded score cache + HTTP API).
type (
	// Service is a long-lived multi-tenant campaign evaluation service.
	Service = service.Service
	// ServiceOptions configures NewService.
	ServiceOptions = service.Options
	// SubmitRequest describes one campaign submission.
	SubmitRequest = service.SubmitRequest
	// JobSnapshot is the externally visible status of a submitted job.
	JobSnapshot = service.JobSnapshot
	// JobState is the lifecycle state of a submitted job.
	JobState = service.JobState
	// ResultSummary is the JSON-friendly projection of a campaign result.
	ResultSummary = service.ResultSummary
	// CacheStats snapshots the shared caches' effectiveness.
	CacheStats = service.CacheStats
	// ScoreEntry is one exported score-cache record (cache checkpoints).
	ScoreEntry = service.ScoreEntry
	// FeatureEntry is one feature-cache record as older workers shipped
	// it; accepted in a WorkerResult and ignored.
	FeatureEntry = service.FeatureEntry
	// JobQuery bounds and filters a job listing (state/cursor/limit).
	JobQuery = service.JobQuery
	// LeaseGrant is a remote worker's claim on one job (lease API).
	LeaseGrant = service.LeaseGrant
	// WorkerResult is the outcome a remote worker posts for a leased job.
	WorkerResult = service.WorkerResult
	// TenantLimits configures one tenant's fair-share weight, queue and
	// concurrency bounds, and submit rate (ServiceOptions.Tenants).
	TenantLimits = service.TenantLimits
	// RateLimitError is the typed rejection of an over-rate submission,
	// carrying the tenant and the bucket's refill wait.
	RateLimitError = service.RateLimitError
)

// DefaultTenant is the tenant legacy (tenant-less) submissions belong to.
const DefaultTenant = service.DefaultTenant

// ErrQueueFull is returned by Submit when the tenant's pending-queue
// bound (TenantLimits.MaxQueued, defaulting to ServiceOptions.MaxQueued)
// is already full (HTTP surfaces it as 429).
var ErrQueueFull = service.ErrQueueFull

// ErrRateLimited is returned by Submit when the tenant's token bucket
// (TenantLimits.SubmitPerSec) is empty; errors.Is matches it against
// the *RateLimitError carrying the wait (HTTP surfaces it as 429 with
// Retry-After).
var ErrRateLimited = service.ErrRateLimited

// ErrLeaseLost is returned to a worker whose lease on a job is no
// longer valid (expired, preempted, re-assigned or canceled); the
// worker must abandon the run.
var ErrLeaseLost = service.ErrLeaseLost

// Job lifecycle states. Every executing job is JobLeased — to a remote
// worker or to an in-process one ("local/<n>"); JobRunning is accepted
// in listing filters and old journals but never produced.
const (
	JobQueued   = service.StateQueued
	JobLeased   = service.StateLeased
	JobRunning  = service.StateRunning
	JobDone     = service.StateDone
	JobFailed   = service.StateFailed
	JobCanceled = service.StateCanceled
)

// NewService builds and starts a campaign service; call Shutdown when
// done. Serve its HTTP API with http.ListenAndServe(addr, s.Handler())
// or embed it in-process via Submit/Status/Result. Panics if
// ServiceOptions.StateDir is set but unusable; use OpenService to
// handle persistence errors.
func NewService(opts ServiceOptions) *Service { return service.NewService(opts) }

// OpenService builds and starts a campaign service, restoring durable
// state first when ServiceOptions.StateDir is set: the cache
// checkpoint is imported and the job journal is replayed, so terminal
// jobs are served from their persisted summaries and interrupted jobs
// re-enter the queue under their original IDs.
func OpenService(opts ServiceOptions) (*Service, error) { return service.Open(opts) }

// Remote-worker types: the pull-based executor side of the service's
// lease protocol (cmd/impeccable-worker wraps this package; embedders
// can run workers in-process the same way).
type (
	// Worker pulls leased jobs from a coordinator and executes them
	// against per-worker caches.
	Worker = worker.Worker
	// WorkerOptions configures NewWorker.
	WorkerOptions = worker.Options
)

// NewWorker builds a remote campaign executor; call Run with a context
// to start pulling jobs from WorkerOptions.Server. A worker that stops
// (or is killed) mid-job simply loses its lease: the coordinator
// re-enqueues the job and the rerun is byte-identical science.
func NewWorker(opts WorkerOptions) *Worker { return worker.New(opts) }
