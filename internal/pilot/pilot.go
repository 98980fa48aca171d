package pilot

import (
	"fmt"

	"sync"

	"impeccable/internal/hpc"
)

// Executor launches placed tasks and reports completion.
type Executor interface {
	// Launch starts t and arranges for done to be called exactly once
	// when it finishes.
	Launch(t *Task, done func())
}

// SimExecutor completes tasks after their modeled Duration on the
// simulation clock.
type SimExecutor struct{ Clock hpc.Clock }

// Launch implements Executor.
func (e *SimExecutor) Launch(t *Task, done func()) {
	e.Clock.After(t.Duration, done)
}

// RealExecutor runs each task's Fn on its own goroutine (RP isolates each
// task into a dedicated process; a goroutine is this runtime's unit of
// isolation). A panicking task is contained: it fails the task, not the
// agent.
type RealExecutor struct{}

// Launch implements Executor.
func (e *RealExecutor) Launch(t *Task, done func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				t.Err = fmt.Errorf("task %q panicked: %v", t.Name, r)
			}
			done()
		}()
		if t.Fn != nil {
			t.Fn()
		}
	}()
}

// UtilSample is one point of the Fig. 7 utilization time series.
type UtilSample struct {
	Time      float64
	BusyNodes int
	BusyCores int
	BusyGPUs  int
	Running   int
	Queued    int
}

// Pilot owns an allocation and executes submitted tasks on it, FIFO with
// backfilling (a queued task that fits runs even if an earlier one is
// still waiting for space — RP agent semantics).
type Pilot struct {
	Platform hpc.Platform
	Clock    hpc.Clock
	Exec     Executor
	Counter  *hpc.FlopCounter // optional

	mu       sync.Mutex
	cond     *sync.Cond
	sched    *Scheduler
	queue    []*Task
	running  int
	executed []*Task
	failed   []*Task
	trace    []UtilSample
	nextID   uint64
}

// NewPilot builds a pilot over an already-granted allocation.
func NewPilot(p hpc.Platform, clock hpc.Clock, exec Executor) *Pilot {
	pl := &Pilot{Platform: p, Clock: clock, Exec: exec, sched: NewScheduler(p)}
	pl.cond = sync.NewCond(&pl.mu)
	return pl
}

// Submit enqueues tasks and schedules whatever fits immediately.
func (p *Pilot) Submit(tasks ...*Task) {
	p.mu.Lock()
	now := p.Clock.Now()
	for _, t := range tasks {
		p.nextID++
		if t.ID == 0 {
			t.ID = p.nextID
		}
		t.State = New
		t.SubmitTime = now
		p.queue = append(p.queue, t)
	}
	fatals := p.schedule()
	p.sample()
	p.mu.Unlock()
	notifyFatals(fatals)
}

// notifyFatals delivers completion callbacks for unsatisfiable tasks.
// Callbacks run outside p.mu: they may resubmit to the pilot.
func notifyFatals(fatals []*Task) {
	for _, t := range fatals {
		if t.OnDone != nil {
			t.OnDone(t)
		}
	}
}

// schedule places queued tasks first-fit with backfilling, returning the
// tasks rejected as unsatisfiable so the caller can deliver their OnDone
// callbacks once p.mu is released (a fatal task "finishes" too — without
// the callback, a stage waiting on it would wait forever). Caller holds
// p.mu. A failed-shape memo keeps the pass O(queue) for homogeneous
// backlogs: once a (cores, gpus, nodes) request shape fails to place, all
// later tasks of the same shape are skipped without rescanning nodes —
// essential when hundreds of thousands of identical tasks queue behind a
// full allocation.
func (p *Pilot) schedule() (fatals []*Task) {
	type shape struct{ c, g, n int }
	failed := map[shape]bool{}
	remaining := p.queue[:0]
	for _, t := range p.queue {
		sh := shape{t.Cores, t.GPUs, t.nodesOrOne()}
		if failed[sh] {
			remaining = append(remaining, t)
			continue
		}
		_, ok, fatal := p.sched.TryPlace(t)
		if fatal {
			t.State = Failed
			t.EndTime = p.Clock.Now()
			if t.Err == nil {
				t.Err = fmt.Errorf("task %q unsatisfiable on platform %s",
					t.Name, p.Platform.Name)
			}
			p.failed = append(p.failed, t)
			fatals = append(fatals, t)
			continue
		}
		if !ok {
			failed[sh] = true
			remaining = append(remaining, t)
			continue
		}
		t.State = Executing
		t.StartTime = p.Clock.Now()
		p.running++
		task := t
		p.Exec.Launch(task, func() { p.onDone(task) })
	}
	p.queue = remaining
	return fatals
}

// onDone finalizes a completed task, frees its resources and reschedules.
func (p *Pilot) onDone(t *Task) {
	p.mu.Lock()
	t.EndTime = p.Clock.Now()
	p.sched.Release(t)
	p.running--
	if t.Err != nil {
		t.State = Failed
		p.failed = append(p.failed, t)
	} else {
		t.State = Done
		p.executed = append(p.executed, t)
		if p.Counter != nil && t.Component != "" {
			p.Counter.Add(t.Component, t.Flops, t.EndTime-t.StartTime, 1)
		}
	}
	cb := t.OnDone
	fatals := p.schedule()
	p.sample()
	p.cond.Broadcast()
	p.mu.Unlock()
	if cb != nil {
		cb(t)
	}
	notifyFatals(fatals)
}

// sample appends a utilization trace point. Caller holds p.mu.
func (p *Pilot) sample() {
	p.trace = append(p.trace, UtilSample{
		Time:      p.Clock.Now(),
		BusyNodes: p.sched.BusyNodes(),
		BusyCores: p.sched.BusyCores(),
		BusyGPUs:  p.sched.BusyGPUs(),
		Running:   p.running,
		Queued:    len(p.queue),
	})
}

// Wait blocks until no tasks are queued or running. With a SimExecutor,
// the caller must drive the SimClock from another goroutine, or run
// the clock to quiescence itself (SimClock.Run) instead of waiting.
func (p *Pilot) Wait() {
	p.mu.Lock()
	for p.running > 0 || len(p.queue) > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Idle reports whether the pilot has no queued or running tasks.
func (p *Pilot) Idle() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running == 0 && len(p.queue) == 0
}

// Executed returns completed tasks in completion order.
func (p *Pilot) Executed() []*Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Task(nil), p.executed...)
}

// FailedTasks returns tasks rejected as unsatisfiable.
func (p *Pilot) FailedTasks() []*Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Task(nil), p.failed...)
}

// UtilizationTrace returns the recorded trace.
func (p *Pilot) UtilizationTrace() []UtilSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]UtilSample(nil), p.trace...)
}

// Oversubscribed exposes the scheduler invariant for tests.
func (p *Pilot) Oversubscribed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sched.Oversubscribed()
}
