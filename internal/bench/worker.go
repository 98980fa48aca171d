package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"impeccable"
	"impeccable/internal/service"
)

// workerTTL is the lease the benchmark's workers ask for. The default
// 30 s lease heartbeats every 10 s, so a campaign of a few seconds would
// never heartbeat; 3 s makes the real worker renew about once a second.
const workerTTL = 3 * time.Second

// leaseTimes is what the tap saw of one job's lease: when the grant
// arrived, when the completion was accepted, and the size of the upload.
type leaseTimes struct {
	granted, completed time.Time
	uploadBytes        int64
	heartbeats         int
}

// workerTap is the http.RoundTripper handed to the real worker
// (WorkerOptions.HTTPClient). It sees exactly the worker's three
// protocol calls and records a worker.<route> span for each, notes
// per-job lease times for worker.overhead_s, and — during setup — tees
// the complete upload so the stub worker can replay genuine results.
type workerTap struct {
	next http.RoundTripper
	rec  *recorder

	mu       sync.Mutex
	job      string // the job of the lease in progress
	leases   map[string]*leaseTimes
	captured [][]byte // complete bodies, in order; nil unless capturing
	capture  bool
}

func newWorkerTap(rec *recorder, capture bool) *workerTap {
	return &workerTap{
		next:    &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2},
		rec:     rec,
		leases:  make(map[string]*leaseTimes),
		capture: capture,
	}
}

func (t *workerTap) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeName(req.Method, req.URL.Path)
	t.mu.Lock()
	job := t.job
	t.mu.Unlock()
	if route == "complete" && t.capture && req.GetBody != nil {
		if rd, err := req.GetBody(); err == nil {
			if body, err := io.ReadAll(rd); err == nil {
				t.mu.Lock()
				t.captured = append(t.captured, body)
				t.mu.Unlock()
			}
		}
	}
	id := t.rec.reserve()
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	start := time.Now()
	res, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if route == "lease" && res.StatusCode == http.StatusOK {
		// The grant names the job every later call belongs to. It is a
		// few hundred bytes: read it here and hand the worker a copy.
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			return nil, err
		}
		res.Body = io.NopCloser(bytes.NewReader(body))
		var grant impeccable.LeaseGrant
		if json.Unmarshal(body, &grant) == nil {
			job = grant.JobID
		}
	}
	end := time.Now()
	t.mu.Lock()
	switch {
	case route == "lease" && res.StatusCode == http.StatusOK:
		t.job = job
		t.leases[job] = &leaseTimes{granted: end}
	case route == "heartbeat" && t.leases[job] != nil:
		t.leases[job].heartbeats++
	case route == "complete" && res.StatusCode == http.StatusOK && t.leases[job] != nil:
		t.leases[job].completed = end
		t.leases[job].uploadBytes = req.ContentLength
	}
	t.mu.Unlock()
	if route != "lease" || res.StatusCode == http.StatusOK {
		// Idle polls (204) are the worker waiting, not work on a job.
		t.rec.finish(id, 0, job, "worker."+route, start, end)
	}
	return res, nil
}

// lease returns what the tap saw of one job's lease, once the worker
// has its completion acknowledged. The client can learn a job is done
// (the terminal event is published inside the complete handler) before
// the worker's complete call returns, so this waits for the response —
// briefly: the coordinator is already past the point of no return.
func (t *workerTap) lease(job string) (leaseTimes, bool) {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		t.mu.Lock()
		lt, ok := t.leases[job]
		if ok && !lt.completed.IsZero() {
			defer t.mu.Unlock()
			return *lt, true
		}
		t.mu.Unlock()
		if !ok || time.Now().After(deadline) {
			return leaseTimes{}, false
		}
	}
}

// realWorker runs one impeccable.NewWorker against the cluster until
// stop is called.
type realWorker struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// startWorker attaches one real worker. tap may be nil (untraced runs
// use the worker's own clients).
func startWorker(c *cluster, tap *workerTap) *realWorker {
	opts := impeccable.WorkerOptions{
		Server:          c.base,
		ID:              "bench-worker",
		TTL:             workerTTL,
		Poll:            2 * time.Millisecond,
		CampaignWorkers: runtime.GOMAXPROCS(0),
		Logf:            func(string, ...any) {},
	}
	if tap != nil {
		opts.HTTPClient = &http.Client{Transport: tap, Timeout: time.Minute}
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &realWorker{cancel: cancel, done: make(chan struct{})}
	worker := impeccable.NewWorker(opts)
	go func() {
		defer close(w.done)
		_ = worker.Run(ctx) // returns ctx.Err() once stopped
	}()
	return w
}

// stop cancels the worker and waits for its loop to exit.
func (w *realWorker) stop() {
	w.cancel()
	<-w.done
}

// capturedResult is one genuine completion taken from a real worker run
// during setup: the request that produced it and the result the worker
// uploaded (summary, stats, score and feature deltas).
type capturedResult struct {
	Req    impeccable.SubmitRequest
	Result impeccable.WorkerResult
}

// capture runs the given requests on a real worker through the cluster
// and returns what the worker uploaded for each. The completions also
// land in the coordinator, so its caches end up pre-warmed with exactly
// these deltas.
func capture(c *cluster, reqs []impeccable.SubmitRequest) ([]capturedResult, error) {
	tap := newWorkerTap(c.rec, true)
	w := startWorker(c, tap)
	defer w.stop()
	out := make([]capturedResult, 0, len(reqs))
	for i, req := range reqs {
		id, _, err := c.submit(req)
		if err != nil {
			return nil, err
		}
		if err := c.waitDone(id); err != nil {
			return nil, err
		}
		tap.mu.Lock()
		n := len(tap.captured)
		tap.mu.Unlock()
		if n != i+1 {
			return nil, fmt.Errorf("bench: capture of %s saw %d completions, want %d", id, n, i+1)
		}
		var body service.CompleteRequest
		if err := json.Unmarshal(tap.captured[i], &body); err != nil {
			return nil, fmt.Errorf("bench: decoding captured completion: %w", err)
		}
		if body.Summary == nil {
			return nil, fmt.Errorf("bench: captured completion of %s carries no summary (%s)", id, body.Error)
		}
		out = append(out, capturedResult{Req: req, Result: body.WorkerResult})
	}
	return out, nil
}

// stubWorker speaks the lease protocol — lease, heartbeat, complete,
// presenting the granted token — but answers every job with a captured
// result instead of running the campaign, so the coordinator's layers do
// all the work and the science none.
type stubWorker struct {
	captured []capturedResult
	shipped  []bool // deltas travel with the first use of each result only
	uploads  series // size of each complete upload; read after run returns
	mu       sync.Mutex
	grants   int // leases granted so far; guarded by mu, read by the client
}

func newStubWorker(captured []capturedResult) *stubWorker {
	return &stubWorker{captured: captured, shipped: make([]bool, len(captured))}
}

// grantCount is how many leases the stub has been granted so far.
func (w *stubWorker) grantCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.grants
}

// completion is what the stub reports for one finished lifecycle.
type completion struct {
	Job     string
	Light   bool   // the job belongs to the light tenant
	Grant   int    // 1-based position of this job's grant among all grants
	Summary []byte // the result body the coordinator must now serve
	Err     error
}

// resultFor picks the captured result that answers a request — the one
// captured for the same library window — and stamps the job's seed into
// the summary so no two jobs spill identical blobs.
func (w *stubWorker) resultFor(req impeccable.SubmitRequest) impeccable.WorkerResult {
	idx := 0
	for i, cr := range w.captured {
		if cr.Req.LibOffset == req.LibOffset {
			idx = i
		}
	}
	res := w.captured[idx].Result
	sum := *res.Summary
	sum.Funnel.WallSeconds += float64(req.Seed) * 1e-6
	res.Summary = &sum
	if w.shipped[idx] {
		// A worker that already holds a window's labels recomputes
		// nothing and ships empty deltas.
		res.Scores, res.Features = nil, nil
	}
	w.shipped[idx] = true
	return res
}

// runOne leases one job and completes it. ok is false when the
// coordinator had no work.
func (w *stubWorker) runOne(c *cluster) (done completion, ok bool) {
	fail := func(err error) (completion, bool) {
		done.Err = err
		return done, true
	}
	r, err := c.call(0, "", "worker.lease", http.MethodPost, "/api/v1/worker/lease",
		service.LeaseRequest{WorkerID: stubID, TTLSeconds: workerTTL.Seconds()})
	if err != nil {
		return fail(err)
	}
	if r.status == http.StatusNoContent {
		return completion{}, false
	}
	if r.status != http.StatusOK {
		return fail(fmt.Errorf("bench: lease answered %d", r.status))
	}
	var grant impeccable.LeaseGrant
	if err := json.Unmarshal(r.body, &grant); err != nil {
		return fail(fmt.Errorf("bench: decoding lease grant: %w", err))
	}
	done.Job, done.Light = grant.JobID, grant.Req.Tenant == lightTenant
	c.rec.setJob(r.span, grant.JobID)
	w.mu.Lock()
	w.grants++
	done.Grant = w.grants
	w.mu.Unlock()

	hb, err := c.call(0, grant.JobID, "worker.heartbeat", http.MethodPost, "/api/v1/worker/heartbeat",
		service.HeartbeatRequest{WorkerID: stubID, Token: grant.Token, JobID: grant.JobID, Stage: "s1-dock", Progress: 0.5})
	if err == nil && hb.status != http.StatusOK {
		err = fmt.Errorf("bench: heartbeat for %s answered %d", grant.JobID, hb.status)
	}
	if err != nil {
		return fail(err)
	}

	res := w.resultFor(grant.Req)
	cp, err := c.call(0, grant.JobID, "worker.complete", http.MethodPost, "/api/v1/worker/complete",
		service.CompleteRequest{WorkerID: stubID, Token: grant.Token, JobID: grant.JobID, WorkerResult: res})
	if err == nil && cp.status != http.StatusOK {
		err = fmt.Errorf("bench: complete for %s answered %d: %s", grant.JobID, cp.status, bytes.TrimSpace(cp.body))
	}
	if err != nil {
		return fail(err)
	}
	w.uploads.add(float64(cp.sent))
	// The coordinator serves results with json.Encoder, which ends the
	// body with a newline.
	want, err := json.Marshal(res.Summary)
	if err != nil {
		return fail(fmt.Errorf("bench: encoding expected summary: %w", err))
	}
	done.Summary = append(want, '\n')
	return done, true
}

const stubID = "bench-stub"

// run completes lifecycles until it has finished `total` jobs or, when
// total is 0, `lights` jobs of the light tenant; it reports each on out
// and closes out when it stops. An empty queue is waited out: the loop
// is closed, the worker waits for its lease.
func (w *stubWorker) run(ctx context.Context, c *cluster, total, lights int, out chan<- completion) {
	defer close(out)
	for done, lightDone := 0, 0; (total > 0 && done < total) || (total == 0 && lightDone < lights); {
		if ctx.Err() != nil {
			return
		}
		comp, ok := w.runOne(c)
		if !ok {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		done++
		if comp.Light {
			lightDone++
		}
		select {
		case out <- comp:
		case <-ctx.Done():
			return
		}
	}
}
