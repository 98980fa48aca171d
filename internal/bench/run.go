package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"impeccable"
	"impeccable/internal/merkle"
	"impeccable/internal/service"
	"impeccable/internal/xrand"
)

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the budget of the measured phase; workload sizes scale
	// with it (see sizes).
	Seconds float64
	// Trace repeats the run with the span recorder on and adds the
	// per-layer metrics and trace-<workload>.json.
	Trace bool
	// WorkDir receives the state dirs (removed afterwards) and the
	// trace files.
	WorkDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer

	mini bool // run miniSizes (tests)
}

// Result is what one workload run measured.
type Result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"ops_attempted"`
	Failed    int64            `json:"ops_failed"`
	Problems  []string         `json:"problems,omitempty"`
	EndToEnd  map[string]Value `json:"end_to_end"`
	PerLayer  map[string]Value `json:"per_layer,omitempty"`
	TraceFile string           `json:"trace_file,omitempty"`
}

// Run executes one workload: an untraced run for the end-to-end
// metrics and, with Options.Trace, a second traced run plus the kernel
// probes for the per-layer metrics.
func Run(opts Options) (*Result, error) {
	s := sizesFor(opts.Seconds)
	if opts.mini {
		s = miniSizes()
	}
	p, err := generate(opts.Workload, opts.Seed, s)
	if err != nil {
		return nil, err
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if err := os.MkdirAll(opts.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: creating work dir: %w", err)
	}
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}

	resetPeakRSS()
	plain, err := execute(opts, s, p, golden, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workload: opts.Workload, Seed: opts.Seed, Seconds: opts.Seconds,
		EndToEnd: plain.endToEnd(),
	}
	res.EndToEnd["peak_rss_mb"] = Value{Value: peakRSSMB(), Unit: "MB"}
	res.absorb(plain)
	if opts.Trace {
		traced, err := execute(opts, s, p, golden, newRecorder())
		if err != nil {
			return nil, err
		}
		res.absorb(traced)
		res.PerLayer = traced.perLayer(plain)
		if !opts.mini { // the probes have a test of their own
			probed, err := probes(opts.WorkDir)
			if err != nil {
				return nil, err
			}
			for k, v := range probed {
				res.PerLayer[k] = v
			}
		}
		res.TraceFile = filepath.Join(opts.WorkDir, "trace-"+opts.Workload+".json")
		if err := writeChromeTrace(res.TraceFile, traced.rec.snapshot()); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// absorb folds one execution's failure accounting into the result.
func (r *Result) absorb(e *execution) {
	r.Attempted += e.ops.attempted.Load()
	r.Failed += e.ops.failed.Load()
	if msg := e.ops.firstErr.Load(); msg != nil {
		r.Problems = append(r.Problems, *msg)
	}
	r.Problems = append(r.Problems, e.problems...)
}

// pending is a submitted job the client has not read a result for yet.
type pending struct {
	sub         submission
	submittedAt time.Time
	grantsAtAck int // leases the stub had been granted when the submit was acked
}

// execution is one pass over a workload (untraced or traced).
type execution struct {
	opts   Options
	s      sizes
	plan   plan
	golden goldenFile
	rec    *recorder
	ops    opCount
	dir    string
	svc    impeccable.ServiceOptions

	problems []string // failed output checks that are not single operations

	// Client-side samples, always taken (a time.Now pair per call).
	submitMS, resultMS, coldResultMS series
	lifecycleMS, floodLifecycleMS    series
	replayS, replayCompactedS        series
	proofMS                          series
	overlap                          series // Funnel.OverlapRatio of measured campaigns
	workerOverheadS, uploadBytes     series // traced runs only
	lightSlotsMax                    int

	pending  map[string]pending
	refilled int                          // plan.Refill submissions used so far
	terminal []string                     // jobs whose result the client has read, in order
	bodies   map[string][sha256.Size]byte // job → digest of the result body read before any restart
	// warmFirst is the science of the first warm result per window;
	// repeated submissions of the window must reproduce it.
	warmFirst map[uint64][]byte

	setup, liveWall time.Duration
	liveJobs        int
	// Throughput is taken per block of measured traffic (a campaign, a
	// hundred control-plane lifecycles, a restart cycle) and reported as
	// the median over blocks: the reference box is a shared VM whose
	// speed dips for seconds at a time, and a total over the whole phase
	// would charge every dip to the program.
	block struct {
		start   time.Time
		jobs    int
		ligands int64
	}
	jobRates, ligandRates series
	compact               time.Duration
	verify                time.Duration
	journalBytes          [2]int64 // before and after compaction
	blobBytes             int64
	stub                  *stubWorker
	worker                *realWorker
	tap                   *workerTap

	// /metrics scrapes bracketing each stretch of measured traffic
	// (traced only): the live phase, or every cycle of restart-replay.
	scrapes      [][2]promScrape
	scrape       time.Duration
	cacheEntries [2]int        // coordinator cache entries around the live phase
	clientBusy   time.Duration // time the submitting client spent inside calls
}

// execute runs setup, the live phase, the restart cycles and the final
// state-dir checks of one workload.
func execute(opts Options, s sizes, p plan, golden goldenFile, rec *recorder) (*execution, error) {
	dir, err := os.MkdirTemp(opts.WorkDir, "state-"+opts.Workload+"-")
	if err != nil {
		return nil, fmt.Errorf("bench: creating state dir: %w", err)
	}
	defer os.RemoveAll(dir)
	e := &execution{
		opts: opts, s: s, plan: p, golden: golden, rec: rec, dir: dir,
		svc:     serviceOptions(dir),
		pending: make(map[string]pending),
		bodies:  make(map[string][sha256.Size]byte),

		warmFirst: make(map[uint64][]byte),
	}
	switch opts.Workload {
	case ControlPlane:
		// Short cadences so the background checkpoint and compaction
		// loops complete several cycles inside the measured phase.
		e.svc.SnapshotEvery, e.svc.CompactEvery = 5*time.Second, 5*time.Second
	case RestartReplay:
		// The state dir must stay uncompacted until the harness compacts
		// it between the two halves of the cycles.
		e.svc.CompactEvery = -1
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(opts.Log, "%s[%s] "+format+"\n", append([]any{opts.Workload, traceTag(rec)}, args...)...)
	}

	// ---- setup ----
	start := time.Now()
	c, _, err := openCluster(e.svc, rec)
	if err != nil {
		return nil, err
	}
	// The real worker (funnel workloads) is attached in setup and must
	// be gone before the coordinator it polls is: stopped after the live
	// phase, and on every early return.
	stopWorker := func() {
		if e.worker != nil {
			e.worker.stop()
		}
	}
	defer stopWorker()
	if err := e.setupPhase(c); err != nil {
		c.close()
		return nil, err
	}
	e.setup = time.Since(start)
	logf("setup %.2fs", e.setup.Seconds())

	// ---- live phase ----
	if opts.Workload != RestartReplay {
		if err := e.bracket(c, func() error {
			start := time.Now()
			e.openBlock()
			err := e.livePhase(c)
			e.liveWall = time.Since(start)
			return err
		}); err != nil {
			c.close()
			return nil, err
		}
		logf("live %.2fs, %d jobs", e.liveWall.Seconds(), e.liveJobs)
	}
	stopWorker()
	c.close()

	// ---- restart cycles ----
	start = time.Now()
	if err := e.restartPhase(); err != nil {
		return nil, err
	}
	if opts.Workload == RestartReplay {
		e.liveWall = time.Since(start)
	}
	logf("restart cycles %.2fs", time.Since(start).Seconds())

	// ---- final state dir ----
	start = time.Now()
	rep, err := service.VerifyStateDir(dir)
	e.verify = time.Since(start)
	if err != nil {
		e.problems = append(e.problems, "VerifyStateDir: "+err.Error())
	} else if !rep.Ok() {
		e.problems = append(e.problems, "VerifyStateDir: "+strings.Join(rep.Problems, "; "))
	}
	if e.lightSlotsMax > 2 {
		e.problems = append(e.problems, fmt.Sprintf("a light job waited %d grant slots behind the flood (bound 2)", e.lightSlotsMax))
	}
	return e, nil
}

// bracket runs a stretch of measured traffic between two /metrics
// scrapes (and cache-size reads) when the run is traced, so count
// metrics can be taken as deltas across exactly that stretch.
func (e *execution) bracket(c *cluster, traffic func() error) error {
	if e.rec == nil {
		return traffic()
	}
	before, _, err := c.scrape()
	if err != nil {
		return err
	}
	entries, err := c.cacheEntries()
	if err != nil {
		return err
	}
	if len(e.scrapes) == 0 {
		e.cacheEntries[0] = entries
	}
	if err := traffic(); err != nil {
		return err
	}
	after, dur, err := c.scrape()
	if err != nil {
		return err
	}
	e.scrapes, e.scrape = append(e.scrapes, [2]promScrape{before, after}), dur
	e.cacheEntries[1], err = c.cacheEntries()
	return err
}

func traceTag(rec *recorder) string {
	if rec != nil {
		return " traced"
	}
	return ""
}

// setupPhase brings the cluster to the state the measured phase starts
// from.
func (e *execution) setupPhase(c *cluster) error {
	switch e.opts.Workload {
	case FunnelCold, FunnelWarm:
		// The warm-up campaign finishes lazy initialisation (receptor
		// grids, pools) on a window no measured campaign touches; the
		// warm workload then runs its windows once cold so the measured
		// resubmissions find every dock in the caches.
		// The worker stays attached into the live phase: its caches are
		// what the warm workload's cold pass warms.
		if e.rec != nil { // an untraced worker keeps its own HTTP clients
			e.tap = newWorkerTap(e.rec, false)
		}
		e.worker = startWorker(c, e.tap)
		var reqs []impeccable.SubmitRequest
		if e.plan.Smoke != nil {
			reqs = append(reqs, *e.plan.Smoke)
		}
		for _, req := range append(reqs, e.plan.Setup...) {
			if err := e.campaign(c, submission{Req: req}, false); err != nil {
				return err
			}
		}
		return nil
	default:
		captured, err := capture(c, e.plan.Setup)
		e.ops.done(err)
		if err != nil {
			return err
		}
		e.stub = newStubWorker(captured)
		if e.opts.Workload == RestartReplay {
			return e.drive(c, e.plan.StateJobs, e.s.StateJobs, e.s.Backlog, false)
		}
		return nil
	}
}

// livePhase is the measured traffic of every workload but
// restart-replay, whose measured traffic runs inside the restart cycles.
func (e *execution) livePhase(c *cluster) error {
	switch e.opts.Workload {
	case FunnelCold, FunnelWarm:
		for _, sub := range e.plan.Measured {
			if err := e.campaign(c, sub, true); err != nil {
				return err
			}
		}
		return nil
	case ControlPlane:
		return e.drive(c, e.plan.Measured, len(e.plan.Measured), e.s.Backlog, true)
	}
	return nil
}

// campaign runs one funnel campaign as the closed-loop client and
// accounts for it: submit and result read are one operation each, and a
// measured campaign's result must match the golden file.
func (e *execution) campaign(c *cluster, sub submission, measured bool) error {
	l, err := c.campaign(sub.Req)
	e.ops.done(err) // the lifecycle: submitted, finished, result read
	if err != nil {
		return err
	}
	if measured {
		// A wrong result is a failed operation, not a reason to stop:
		// the run goes on and reports correct=false.
		warm := e.opts.Workload == FunnelWarm
		e.ops.done(e.golden.check(sub.Req, l.sum, warm))
		if warm {
			e.ops.done(e.checkWarmRepeat(sub.Req, l.sum))
		}
		e.submitMS.add(ms(l.ack))
		e.resultMS.add(ms(l.read))
		e.lifecycleMS.add(ms(l.total))
		e.overlap.add(l.sum.Funnel.OverlapRatio)
		e.count(sub.Req)
		e.closeBlock()
		e.traceCampaign(c, l.id, l.sum)
	} else if e.tap != nil {
		// Wait for the worker's complete call to return, so that what
		// the coordinator does after publishing the terminal event
		// (cache merge, counters, checkpoint) is not charged to the
		// measured phase's count deltas.
		e.tap.lease(l.id)
	}
	e.remember(l.id, l.body)
	return nil
}

// blockJobs is the control plane's throughput block: long enough to
// average over the scheduler's tenant alternation, short enough that a
// run has a few dozen blocks.
const blockJobs = 100

// count adds one finished measured job to the open throughput block.
func (e *execution) count(req impeccable.SubmitRequest) {
	e.liveJobs++
	e.block.jobs++
	e.block.ligands += int64(req.LibrarySize)
}

// openBlock starts a throughput block now.
func (e *execution) openBlock() {
	e.block.start, e.block.jobs, e.block.ligands = time.Now(), 0, 0
}

// closeBlock records the open block's rates and starts the next one.
func (e *execution) closeBlock() {
	if wall := time.Since(e.block.start).Seconds(); e.block.jobs > 0 && wall > 0 {
		e.jobRates.add(float64(e.block.jobs) / wall)
		e.ligandRates.add(float64(e.block.ligands) / wall)
	}
	e.openBlock()
}

// remember notes a job whose result the client has read, for the
// restart checks.
func (e *execution) remember(id string, body []byte) {
	e.terminal = append(e.terminal, id)
	e.bodies[id] = sha256.Sum256(body)
}

// checkWarmRepeat holds the warm workload's repeated submissions of one
// window to identical science: everything but the cost ledger must
// match the window's first warm result.
func (e *execution) checkWarmRepeat(req impeccable.SubmitRequest, sum impeccable.ResultSummary) error {
	science, err := json.Marshal(scienceOf(sum))
	if err != nil {
		return fmt.Errorf("bench: encoding warm result: %w", err)
	}
	first, ok := e.warmFirst[req.LibOffset]
	if !ok {
		e.warmFirst[req.LibOffset] = science
		return nil
	}
	if !bytes.Equal(first, science) {
		return fmt.Errorf("bench: warm window %d: a repeated submission changed the science", req.LibOffset)
	}
	return nil
}

// drive pushes control-plane submissions through the cluster: this
// goroutine is the submitting client, the stub worker runs beside it.
// The client keeps the flood tenant's queue `backlog` deep, reads every
// finished job's result, and checks it against what the stub uploaded.
// With complete > 0 the stub finishes that many jobs and whatever else
// was submitted stays queued; with complete == 0 it works until every
// light job in subs is done.
func (e *execution) drive(c *cluster, subs []submission, complete, backlog int, measured bool) error {
	ctx, cancel := context.WithCancel(context.Background())
	lights := 0
	for _, sub := range subs {
		if sub.Light {
			lights++
		}
	}
	// Buffered to the most jobs that can be in flight, so the stub never
	// waits on the client to hand over a completion.
	done := make(chan completion, backlog+lights+e.s.QueuedJobs+1)
	go e.stub.run(ctx, c, complete, lights, done)
	// On an early return, cancel and let the stub finish its call: it
	// closes done on its way out.
	defer func() {
		cancel()
		for range done {
		}
	}()

	next, floodQueued := 0, 0
	submit := func(sub submission) error {
		id, ack, err := c.submit(sub.Req)
		e.ops.done(err)
		if err != nil {
			return err
		}
		e.pending[id] = pending{sub: sub, submittedAt: time.Now().Add(-ack), grantsAtAck: e.stub.grantCount()}
		if measured {
			e.submitMS.add(ms(ack))
			e.clientBusy += ack
		}
		if !sub.Light {
			floodQueued++
		}
		return nil
	}
	topUp := func() error {
		for ; next < len(subs) && floodQueued < backlog; next++ {
			if err := submit(subs[next]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := topUp(); err != nil {
		return err
	}
	floodDone := 0
	for comp := range done {
		if comp.Err != nil {
			e.ops.done(comp.Err)
			return comp.Err
		}
		body, dur, err := c.result(comp.Job)
		if err == nil && !bytes.Equal(body, comp.Summary) {
			err = fmt.Errorf("bench: result of %s differs from the completion the worker uploaded", comp.Job)
		}
		e.ops.done(err)
		if body == nil {
			return err
		}
		e.remember(comp.Job, body)
		p, ok := e.pending[comp.Job]
		if !ok {
			e.problems = append(e.problems, "completion for a job the client never submitted: "+comp.Job)
			continue
		}
		delete(e.pending, comp.Job)
		if !comp.Light {
			floodQueued--
			floodDone++
		}
		if measured {
			e.resultMS.add(ms(dur))
			e.clientBusy += dur
			e.count(p.sub.Req)
			if e.opts.Workload == ControlPlane && e.block.jobs >= blockJobs {
				e.closeBlock()
			}
			life := ms(time.Since(p.submittedAt))
			if comp.Light {
				e.lifecycleMS.add(life)
				// The fairness bound is about a lone light job behind
				// the flood; restart-replay submits its light jobs in
				// bursts, where they queue behind each other.
				if e.opts.Workload == ControlPlane {
					e.lightSlotsMax = max(e.lightSlotsMax, comp.Grant-p.grantsAtAck-1)
				}
			} else {
				e.floodLifecycleMS.add(life)
			}
			e.traceQueueWait(c, comp.Job)
		}
		if err := topUp(); err != nil {
			return err
		}
	}
	// Whatever the stub was not asked to finish is submitted and left
	// queued (the state dir's restored queue) ...
	for ; next < len(subs); next++ {
		if err := submit(subs[next]); err != nil {
			return err
		}
	}
	// ... and a restart cycle replaces the flood jobs it drained.
	for ; complete == 0 && floodDone > 0 && e.refilled < len(e.plan.Refill); floodDone-- {
		if err := submit(e.plan.Refill[e.refilled]); err != nil {
			return err
		}
		e.refilled++
	}
	return nil
}

// restartPhase is what every workload ends with (and what
// restart-replay measures): open the state dir, wait for /healthz, read
// back a seeded sample of results and provenance proofs, shut down —
// compacting the journal halfway through the cycles.
func (e *execution) restartPhase() error {
	cycles := e.s.TailCycles
	if e.opts.Workload == RestartReplay {
		cycles = e.s.Cycles
	}
	r := xrand.NewFrom(e.opts.Seed, 0x2E57A27)
	e.svc.CompactEvery = -1 // compaction happens exactly once, in cycle cycles/2-1
	for i := 0; i < cycles; i++ {
		if err := e.cycle(i, cycles, r); err != nil {
			return err
		}
	}
	var err error
	e.journalBytes[1], e.blobBytes, err = stateBytes(e.dir)
	return err
}

// cycle is one restart: open, read back, (restart-replay only) a burst
// of light-tenant traffic, and shut down. The whole cycle is one
// throughput block, so restart-replay's rates include the restarts.
func (e *execution) cycle(i, cycles int, r *xrand.RNG) error {
	e.openBlock()
	c, replay, err := openCluster(e.svc, e.rec)
	e.ops.done(err)
	if err != nil {
		return err
	}
	defer func() {
		c.close()
		e.closeBlock() // records nothing for a cycle without traffic
	}()
	if i < cycles/2 {
		e.replayS.add(replay.Seconds())
	} else {
		e.replayCompactedS.add(replay.Seconds())
	}
	e.readBack(c, r)
	if n := e.s.CycleJobs; e.opts.Workload == RestartReplay {
		subs := e.plan.Measured[i*n : (i+1)*n]
		if err := e.bracket(c, func() error { return e.drive(c, subs, 0, len(subs), true) }); err != nil {
			return err
		}
	}
	if i == cycles/2-1 {
		if e.journalBytes[0], _, err = stateBytes(e.dir); err != nil {
			return err
		}
		start := time.Now()
		err := c.svc.CompactNow()
		e.compact = time.Since(start)
		e.ops.done(err)
	}
	return nil
}

// readBack checks, on a freshly reopened coordinator, that a sample of
// the jobs acked before the restart are present with byte-identical
// results, and that their provenance proofs verify. Each read is the
// first after the open, so it resolves journal and blob state cold.
func (e *execution) readBack(c *cluster, r *xrand.RNG) {
	if len(e.terminal) == 0 {
		return
	}
	reads := min(e.s.CycleReads, len(e.terminal))
	for _, i := range r.SampleK(len(e.terminal), reads) {
		id := e.terminal[i]
		body, dur, err := c.result(id)
		if err == nil && sha256.Sum256(body) != e.bodies[id] {
			err = fmt.Errorf("bench: result of %s changed across a restart", id)
		}
		e.ops.done(err)
		if err == nil {
			e.coldResultMS.add(ms(dur))
		}
	}
	proofs := min(e.s.CycleProofs, len(e.terminal))
	for _, i := range r.SampleK(len(e.terminal), proofs) {
		id := e.terminal[i]
		rep, err := c.get(id, "client.provenance", "/api/v1/campaigns/"+id+"/provenance")
		if err == nil {
			err = checkProof(id, rep)
		}
		e.ops.done(err)
		if err == nil {
			e.proofMS.add(ms(rep.dur))
		}
	}
}

// checkProof verifies a provenance response: the chain must be sealed
// and the inclusion proof must fold to the sealed root.
func checkProof(id string, rep reply) error {
	var p service.Provenance
	if err := json.Unmarshal(rep.body, &p); err != nil {
		return fmt.Errorf("bench: decoding provenance of %s: %w", id, err)
	}
	if !p.Sealed || p.Proof == nil {
		return fmt.Errorf("bench: provenance of %s is not sealed", id)
	}
	root, err1 := hex.DecodeString(p.Root)
	leaf, err2 := hex.DecodeString(p.Proof.Leaf)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("bench: provenance of %s carries malformed hashes", id)
	}
	steps := make([]merkle.ProofStep, len(p.Proof.Steps))
	for i, s := range p.Proof.Steps {
		h, err := hex.DecodeString(s.Hash)
		if err != nil {
			return fmt.Errorf("bench: provenance of %s carries a malformed step", id)
		}
		steps[i] = merkle.ProofStep{Hash: h, Left: s.Left}
	}
	if !merkle.Verify(root, leaf, steps) {
		return fmt.Errorf("bench: provenance proof of %s does not reach its root", id)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd derives the user-visible metrics of an untraced execution.
func (e *execution) endToEnd() map[string]Value {
	jobs := len(e.terminal)
	return map[string]Value{
		"setup_s":             {Value: e.setup.Seconds(), Unit: "s", N: 1},
		"ligands_per_s":       {Value: e.ligandRates.median(), Unit: "1/s", N: len(e.ligandRates)},
		"jobs_per_s":          {Value: e.jobRates.median(), Unit: "1/s", N: len(e.jobRates)},
		"lifecycle_ms_p50":    {Value: e.lifecycleMS.median(), Unit: "ms", N: len(e.lifecycleMS)},
		"replay_s":            {Value: e.replayS.median(), Unit: "s", N: len(e.replayS)},
		"replay_compacted_s":  {Value: e.replayCompactedS.median(), Unit: "s", N: len(e.replayCompactedS)},
		"state_bytes_per_job": {Value: float64(e.journalBytes[1]+e.blobBytes) / float64(jobs), Unit: "B"},
	}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: fall back to what the Go runtime has obtained from the
	// OS, the closest portable figure.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// resetPeakRSS returns freed memory and restarts the high-water mark,
// so a workload run after another in one process reports its own peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200) // best effort; absent off Linux
}
