package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"impeccable/internal/campaign"
	"impeccable/internal/dock"
	"impeccable/internal/receptor"
)

// Transport carries a Holder's lease-protocol calls: by function call
// to this service (the in-process holders) or over HTTP
// (worker.Worker). A Heartbeat error wrapping ErrLeaseLost or
// ErrUnknownJob means the job is no longer the holder's; any other is a
// failed delivery. Complete's full result is the in-memory campaign
// result of a successful run, which only an in-process transport keeps.
type Transport interface {
	Lease(ctx context.Context) (*LeaseGrant, error) // nil grant: no work now
	Heartbeat(ctx context.Context, g *LeaseGrant, stage string, progress float64) error
	Complete(ctx context.Context, g *LeaseGrant, res WorkerResult, full *campaign.Result) error
}

// Holder turns leases into results, one job at a time, whichever
// transport it drives: the target lookup, the campaign config, the
// abort channel, the heartbeat policy, panic recovery and the result
// summary are written here once.
type Holder struct {
	Transport       Transport
	Name            string // labels log lines and failure messages
	Targets         map[string]*receptor.Target
	CampaignWorkers int // the campaign's worker pool width; 0 = GOMAXPROCS
	// Scores opens the score cache one job docks against; finish, when
	// non-nil, adds the run's cache contribution (a remote worker's
	// delta and stats) to a result about to be completed.
	Scores func(g *LeaseGrant) (cache dock.ScoreCache, finish func(*WorkerResult))
	Logf   func(format string, args ...any)

	run func(campaign.Config, *campaign.Pool, uint64) (*campaign.Result, error) // the science; nil runs the real funnel
}

// RunOne leases at most one job and runs it, reporting whether a job
// was leased. A run is aborted — abandoned, never completed: the job's
// next holder reruns it byte-identically — when a heartbeat finds the
// lease lost, when ctx is canceled, or when no heartbeat has succeeded
// for a full TTL. The error is the lease's or the completion's.
func (h *Holder) RunOne(ctx context.Context) (bool, error) {
	g, err := h.Transport.Lease(ctx)
	if err != nil || g == nil {
		return false, err
	}
	t, ok := h.Targets[g.Req.Target]
	if !ok {
		// Fail the job loudly rather than abandon the lease: a pool where
		// no holder serves the target would otherwise bounce the job
		// between lease expiries forever, invisibly.
		return true, h.Transport.Complete(ctx, g,
			WorkerResult{Error: fmt.Sprintf("%s: unknown target %q", h.Name, g.Req.Target)}, nil)
	}
	cfg := BaseConfig(g.Req, t)
	cfg.Workers = h.CampaignWorkers
	var finish func(*WorkerResult)
	cfg.DockCache, finish = h.Scores(g)
	abort, prog := make(chan struct{}), &runProgress{poke: make(chan struct{}, 1)}
	cfg.Cancel, cfg.Progress = abort, prog.set

	runDone, beatDone := make(chan struct{}), make(chan struct{})
	var aborted bool // written by the beat goroutine before beatDone closes
	go func() {
		defer close(beatDone)
		if aborted = h.beat(ctx, g, prog, runDone); aborted {
			close(abort)
		}
	}()
	res, err := h.science(cfg, g.Req.LibOffset)
	close(runDone)
	<-beatDone
	if aborted || ctx.Err() != nil {
		h.Logf("%s: abandoned %s (lease lost or shutting down)", h.Name, g.JobID)
		return true, nil
	}
	var out WorkerResult
	if err != nil {
		out.Error, res = err.Error(), nil
	} else {
		out.Summary = &ResultSummary{Funnel: res.Funnel, Top: res.Top, ScientificYield: res.ScientificYield}
	}
	if finish != nil {
		finish(&out)
	}
	return true, h.Transport.Complete(ctx, g, out, res)
}

// science runs the campaign; a panic fails the job, never the process.
func (h *Holder) science(cfg campaign.Config, libOffset uint64) (res *campaign.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s: campaign panicked: %v", h.Name, r)
		}
	}()
	run := h.run
	if run == nil {
		run = campaign.RunWithPool
	}
	return run(cfg, nil, libOffset)
}

// beat is the one heartbeat policy: it beats on a stage change (poked
// by the Progress callback, which never waits on it) or on a tick of
// TTL/3, until the run is done, and reports whether the run must be
// aborted — the lease was lost, ctx was canceled, or no beat has
// succeeded for a full TTL, by when the lease has certainly expired.
func (h *Holder) beat(ctx context.Context, g *LeaseGrant, prog *runProgress, runDone <-chan struct{}) bool {
	ttl := time.Duration(g.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	tick := time.NewTicker(beatInterval(ttl))
	defer tick.Stop()
	for deadline := time.Now().Add(ttl); ; {
		select {
		case <-runDone:
			return false
		case <-ctx.Done():
			return true
		case <-prog.poke:
		case <-tick.C:
		}
		prog.mu.Lock()
		stage, frac := prog.stage, prog.frac
		prog.mu.Unlock()
		switch err := h.Transport.Heartbeat(ctx, g, stage, frac); {
		case err == nil:
			deadline = time.Now().Add(ttl)
		case errors.Is(err, ErrLeaseLost) || errors.Is(err, ErrUnknownJob):
			h.Logf("%s: lease on %s lost (%v), aborting run", h.Name, g.JobID, err)
			return true
		case time.Now().After(deadline):
			h.Logf("%s: no heartbeat through a full TTL on %s (%v), aborting run", h.Name, g.JobID, err)
			return true
		}
	}
}

// beatInterval is TTL/3, clamped to [20ms, 10s] so a tiny TTL cannot
// spin and a long one still shows liveness.
func beatInterval(ttl time.Duration) time.Duration {
	return min(max(ttl/3, 20*time.Millisecond), 10*time.Second)
}

// runProgress is a run's latest stage and (monotonic) completed
// fraction; a stage change pokes the beat goroutine without blocking.
type runProgress struct {
	mu    sync.Mutex
	stage string
	frac  float64
	poke  chan struct{} // buffered 1
}

func (p *runProgress) set(stage string, frac float64) {
	p.mu.Lock()
	changed := stage != p.stage
	p.stage, p.frac = stage, max(p.frac, frac)
	p.mu.Unlock()
	if changed {
		select {
		case p.poke <- struct{}{}:
		default:
		}
	}
}

// localTransport is the in-process transport, leasing under a worker ID
// in the reserved localWorkerPrefix namespace.
type localTransport struct {
	s  *Service
	id string
}

func (l localTransport) Lease(context.Context) (*LeaseGrant, error) { return l.s.Lease(l.id, 0) }

func (l localTransport) Heartbeat(_ context.Context, g *LeaseGrant, stage string, progress float64) error {
	_, err := l.s.Heartbeat(l.id, g.Token, g.JobID, stage, progress)
	return err
}

func (l localTransport) Complete(_ context.Context, g *LeaseGrant, res WorkerResult, full *campaign.Result) error {
	return l.s.complete(l.id, g.Token, g.JobID, res, full)
}

// holdLocal runs one in-process holder until shutdown, against the
// service's shared score cache. It idles on the scheduler's wake
// channel, so a submit starts at once; a failed grant (journal closing
// under a drain) leaves the job queued and idles the same way.
func (s *Service) holdLocal(ctx context.Context, id string) {
	defer s.sched.wg.Done()
	h := &Holder{Transport: localTransport{s, id}, Name: id, Targets: s.targets,
		CampaignWorkers: s.workers,
		Scores: func(g *LeaseGrant) (dock.ScoreCache, func(*WorkerResult)) {
			return s.scores.ForTarget(g.Req.Target), nil
		},
		Logf: func(string, ...any) {}}
	for {
		if ran, _ := h.RunOne(ctx); ran {
			continue
		}
		select {
		case <-s.sched.wake:
		case <-s.sched.quit:
			return
		}
	}
}
