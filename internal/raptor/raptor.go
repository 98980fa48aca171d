// Package raptor reimplements the RAdical-Pilot Task OveRlay (§6.1.2,
// Fig. 3): a master/worker layer on top of the pilot abstraction built
// for the docking stage's scale — millions of function-call-sized tasks
// whose individual durations (milliseconds to seconds, with a long tail
// across receptors) are far below what per-task pilot scheduling can
// sustain.
//
// The load-balancing mechanics follow the paper exactly:
//
//   - tasks are communicated in bulks to limit communication load and
//     frequency;
//   - multiple masters limit the number of workers served by each master,
//     avoiding master bottlenecks;
//   - dynamic load distribution sends each bulk to the least-loaded
//     worker, with a bounded prefetch window per worker so the long tail
//     does not strand work behind a slow compound.
//
// The overlay runs in simulated time (durations + DES clock: the §8
// "40 M docks/hour on 4000 nodes" reproduction).
package raptor

import (
	"sort"
	"sync"

	"impeccable/internal/hpc"
	"impeccable/internal/xrand"
)

// Config sizes the overlay.
type Config struct {
	Masters        int     // number of master processes
	Workers        int     // total workers (assigned round-robin to masters)
	SlotsPerWorker int     // concurrent calls per worker (≈ GPUs per node)
	BulkSize       int     // calls per dispatch bulk
	CommLatency    float64 // per-bulk communication latency (s)
	CommPerItem    float64 // per-item marshalling cost (s)
	MasterOverhead float64 // master-side dispatch bookkeeping per bulk (s)
	Prefetch       int     // outstanding window per worker, in multiples of slots

	// Fault injection (§6.1.1 builds the inference setup to be
	// "resilient against sporadic IO errors"; at campaign scale worker
	// loss is routine). FailureProb is the per-call probability that the
	// executing worker crashes; its outstanding work returns to the
	// master's backlog and the worker rejoins after RestartDelay.
	FailureProb  float64
	RestartDelay float64
	FailureSeed  uint64
}

// DefaultConfig returns a Summit-like sizing: one master per 100 workers,
// six slots per worker (one per GPU), bulks of 512.
func DefaultConfig(workers int) Config {
	masters := workers / 100
	if masters < 1 {
		masters = 1
	}
	return Config{
		Masters:        masters,
		Workers:        workers,
		SlotsPerWorker: 6,
		BulkSize:       512,
		CommLatency:    0.010,
		CommPerItem:    0.00001,
		MasterOverhead: 0.002,
		Prefetch:       3,
	}
}

// Stats summarizes an overlay run.
type Stats struct {
	Calls      int
	Start, End float64
	Throughput float64   // calls per second
	Dispatched []int     // per-master dispatched call counts
	WorkerBusy []float64 // per-worker busy seconds
	Bulks      int       // total bulks sent
	Failures   int       // worker crashes survived
	Requeued   int       // calls re-dispatched after a crash
}

// Utilization returns mean worker busy fraction over the run.
func (s Stats) Utilization(slotsPerWorker int) float64 {
	if s.End <= s.Start || len(s.WorkerBusy) == 0 {
		return 0
	}
	span := s.End - s.Start
	var busy float64
	for _, b := range s.WorkerBusy {
		busy += b
	}
	return busy / (span * float64(len(s.WorkerBusy)) * float64(slotsPerWorker))
}

// simWorker is a worker's simulation state.
type simWorker struct {
	id          int
	outstanding int // calls delivered but not completed
	active      int // calls currently in a slot
	queue       []float64
	busySeconds float64
	dead        bool
	gen         int             // incremented on crash; stale events check it
	inFlight    map[int]float64 // active call id → duration (for requeue)
	nextCall    int
}

// simMaster owns a partition of the backlog and a set of workers.
type simMaster struct {
	id         int
	backlog    []float64 // durations yet to dispatch
	workers    []*simWorker
	busy       bool // dispatching a bulk
	dispatched int
	bulks      int
}

// Overlay executes function-call workloads over a master/worker tree.
type Overlay struct {
	Clock hpc.Clock
	Cfg   Config

	mu        sync.Mutex
	masters   []*simMaster
	workers   []*simWorker
	completed int
	total     int
	endTime   float64
	rng       *xrand.RNG
	failures  int
	requeued  int
}

// New builds an overlay on the given clock.
func New(clock hpc.Clock, cfg Config) *Overlay {
	if cfg.Masters < 1 {
		cfg.Masters = 1
	}
	if cfg.SlotsPerWorker < 1 {
		cfg.SlotsPerWorker = 1
	}
	if cfg.BulkSize < 1 {
		cfg.BulkSize = 1
	}
	if cfg.Prefetch < 1 {
		cfg.Prefetch = 1
	}
	return &Overlay{Clock: clock, Cfg: cfg}
}

// RunSim executes a workload of modeled call durations to completion on a
// SimClock and returns the statistics. The caller must pass the same
// clock instance used at construction.
func (o *Overlay) RunSim(durations []float64, clk *hpc.SimClock) Stats {
	o.mu.Lock()
	o.total = len(durations)
	o.completed = 0
	o.failures = 0
	o.requeued = 0
	o.rng = xrand.New(o.Cfg.FailureSeed ^ 0xFA11)
	o.workers = make([]*simWorker, o.Cfg.Workers)
	for i := range o.workers {
		o.workers[i] = &simWorker{id: i, inFlight: map[int]float64{}}
	}
	o.masters = make([]*simMaster, o.Cfg.Masters)
	for i := range o.masters {
		o.masters[i] = &simMaster{id: i}
	}
	// Round-robin worker assignment and backlog partition (§6.1.2:
	// iterate compounds round-robin).
	for i, w := range o.workers {
		m := o.masters[i%o.Cfg.Masters]
		m.workers = append(m.workers, w)
	}
	for i, d := range durations {
		m := o.masters[i%o.Cfg.Masters]
		m.backlog = append(m.backlog, d)
	}
	start := o.Clock.Now()
	for _, m := range o.masters {
		o.tryDispatch(m)
	}
	o.mu.Unlock()

	clk.Run()

	o.mu.Lock()
	defer o.mu.Unlock()
	st := Stats{
		Calls: o.total,
		Start: start,
		End:   o.endTime,
	}
	if st.End > st.Start {
		st.Throughput = float64(st.Calls) / (st.End - st.Start)
	}
	for _, m := range o.masters {
		st.Dispatched = append(st.Dispatched, m.dispatched)
		st.Bulks += m.bulks
	}
	for _, w := range o.workers {
		st.WorkerBusy = append(st.WorkerBusy, w.busySeconds)
	}
	st.Failures = o.failures
	st.Requeued = o.requeued
	return st
}

// tryDispatch sends bulks from m's backlog while it is free and some
// worker has prefetch-window headroom. Caller holds o.mu.
func (o *Overlay) tryDispatch(m *simMaster) {
	if m.busy || len(m.backlog) == 0 || len(m.workers) == 0 {
		return
	}
	window := o.Cfg.Prefetch * o.Cfg.SlotsPerWorker
	// Refill hysteresis: only send to a worker with at least half a
	// window of headroom, so bulks stay near BulkSize instead of
	// degrading to single-call trickles once the pipeline is primed
	// (§6.1.2 mechanism i: bulk communication limits message frequency).
	minHeadroom := window / 2
	if minHeadroom < 1 {
		minHeadroom = 1
	}
	if o.Cfg.BulkSize < minHeadroom {
		minHeadroom = o.Cfg.BulkSize
	}
	// Least-loaded live worker with sufficient headroom.
	var w *simWorker
	for _, cand := range m.workers {
		if cand.dead || window-cand.outstanding < minHeadroom {
			continue
		}
		if w == nil || cand.outstanding < w.outstanding {
			w = cand
		}
	}
	if w == nil {
		return // all workers saturated; a completion will retrigger
	}
	n := o.Cfg.BulkSize
	if headroom := window - w.outstanding; n > headroom {
		n = headroom
	}
	if n > len(m.backlog) {
		n = len(m.backlog)
	}
	bulk := append([]float64(nil), m.backlog[:n]...)
	m.backlog = m.backlog[n:]
	w.outstanding += n
	m.dispatched += n
	m.bulks++
	m.busy = true

	// Master-side bookkeeping occupies the master; communication then
	// delivers the bulk to the worker.
	commDelay := o.Cfg.CommLatency + o.Cfg.CommPerItem*float64(n)
	worker := w
	o.Clock.After(o.Cfg.MasterOverhead, func() {
		o.mu.Lock()
		m.busy = false
		o.tryDispatch(m)
		o.mu.Unlock()
	})
	o.Clock.After(o.Cfg.MasterOverhead+commDelay, func() {
		o.mu.Lock()
		if worker.dead {
			// The worker crashed while the bulk was in flight: bounce
			// it straight back to the master.
			worker.outstanding -= len(bulk)
			m.backlog = append(m.backlog, bulk...)
			o.requeued += len(bulk)
			o.tryDispatch(m)
			o.mu.Unlock()
			return
		}
		worker.queue = append(worker.queue, bulk...)
		o.fillSlots(m, worker)
		o.mu.Unlock()
	})
}

// fillSlots starts queued calls while the worker has free slots. Caller
// holds o.mu.
func (o *Overlay) fillSlots(m *simMaster, w *simWorker) {
	for !w.dead && w.active < o.Cfg.SlotsPerWorker && len(w.queue) > 0 {
		d := w.queue[0]
		w.queue = w.queue[1:]
		w.active++
		w.busySeconds += d
		id := w.nextCall
		w.nextCall++
		w.inFlight[id] = d
		gen := w.gen
		o.Clock.After(d, func() {
			o.mu.Lock()
			if w.gen != gen {
				// Stale completion from before a crash; the call was
				// already requeued.
				o.mu.Unlock()
				return
			}
			delete(w.inFlight, id)
			w.active--
			w.outstanding--
			o.completed++
			if o.completed == o.total {
				o.endTime = o.Clock.Now()
			}
			if o.Cfg.FailureProb > 0 && o.rng.Bool(o.Cfg.FailureProb) {
				o.crash(m, w)
			} else {
				o.fillSlots(m, w)
			}
			o.tryDispatch(m)
			o.mu.Unlock()
		})
	}
}

// crash kills a worker: every queued and in-flight call returns to the
// master backlog and the worker rejoins after RestartDelay. Caller holds
// o.mu.
func (o *Overlay) crash(m *simMaster, w *simWorker) {
	o.failures++
	w.dead = true
	w.gen++
	lost := len(w.queue) + len(w.inFlight)
	m.backlog = append(m.backlog, w.queue...)
	// Deterministic requeue order (map iteration order is randomized).
	ids := make([]int, 0, len(w.inFlight))
	for id := range w.inFlight {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		m.backlog = append(m.backlog, w.inFlight[id])
	}
	o.requeued += lost
	w.queue = nil
	w.inFlight = map[int]float64{}
	w.outstanding -= lost
	w.active = 0
	delay := o.Cfg.RestartDelay
	if delay <= 0 {
		delay = 1
	}
	o.Clock.After(delay, func() {
		o.mu.Lock()
		w.dead = false
		o.tryDispatch(m)
		o.mu.Unlock()
	})
}
