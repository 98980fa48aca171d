package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"impeccable"
)

// cluster is the benchmark topology: one coordinator opened RemoteOnly
// on a state dir, served by a real net/http server on a loopback
// listener, so every job takes the lease path. The harness talks to it
// only through HTTP (and the exported Service methods the probes name).
type cluster struct {
	svc  *impeccable.Service
	srv  *http.Server
	base string
	cli  *http.Client
	rec  *recorder
}

// opCount tallies operations for the failure accounting: an operation
// that is refused, fails or returns the wrong output counts as failed.
type opCount struct {
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]
}

// done records one operation; a non-nil err marks it failed.
func (o *opCount) done(err error) {
	o.attempted.Add(1)
	if err != nil {
		o.failed.Add(1)
		msg := err.Error()
		o.firstErr.CompareAndSwap(nil, &msg)
	}
}

// serviceOptions are the non-default coordinator options every workload
// shares; workloads adjust the cadences.
func serviceOptions(dir string) impeccable.ServiceOptions {
	return impeccable.ServiceOptions{
		StateDir:   dir,
		RemoteOnly: true,
		// Small enough that the captured summaries fall on both sides
		// of it, so the journal's inline and blob-spill paths both run.
		InlineLimit: 940,
		// Small enough that a control-plane run seals a dozen segments,
		// so rotation and compaction have work to do.
		SegmentBytes: 256 << 10,
	}
}

// openCluster opens the coordinator on opts.StateDir and serves it. The
// returned duration runs from the OpenService call to the first 200
// from /healthz — the replay time an operator waits after a restart.
func openCluster(opts impeccable.ServiceOptions, rec *recorder) (*cluster, time.Duration, error) {
	start := time.Now()
	svc, err := impeccable.OpenService(opts)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: opening service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown()
		return nil, 0, fmt.Errorf("bench: listening: %w", err)
	}
	c := &cluster{
		svc:  svc,
		srv:  &http.Server{Handler: rec.handler(svc.Handler())},
		base: "http://" + ln.Addr().String(),
		// The box has two cores: the load generator never holds more
		// than two connections to the coordinator per client.
		cli: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}},
		rec: rec,
	}
	go func() { _ = c.srv.Serve(ln) }() // returns once close() shuts the server down
	if _, err := c.get("", "client.healthz", "/healthz"); err != nil {
		c.close()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// close stops the HTTP server, waits for its handlers, and shuts the
// service down (final checkpoint, journal closed).
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.srv.Shutdown(ctx); err != nil {
		_ = c.srv.Close() // an SSE stream still open; drop it
	}
	c.cli.CloseIdleConnections()
	c.svc.Shutdown()
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	body   []byte
	dur    time.Duration
	span   int // the client span's ID; 0 when untraced
	sent   int // request body bytes
}

// call issues one request and reads the whole response. With tracing on
// it records a client span (under parent, for job) whose ID travels in
// the request so the recording handler can attach the coordinator span.
func (c *cluster) call(parent int, job, name, method, path string, body any) (reply, error) {
	var rd io.Reader
	sent := 0
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return reply{}, fmt.Errorf("bench: encoding %s body: %w", name, err)
		}
		rd, sent = bytes.NewReader(b), len(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := c.rec.reserve()
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	start := time.Now()
	res, err := c.cli.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	resp, err := io.ReadAll(res.Body)
	res.Body.Close()
	end := time.Now()
	if err != nil {
		return reply{}, fmt.Errorf("bench: %s: reading response: %w", name, err)
	}
	c.rec.finish(id, parent, job, name, start, end)
	return reply{status: res.StatusCode, body: resp, dur: end.Sub(start), span: id, sent: sent}, nil
}

// get issues a GET that must answer 200.
func (c *cluster) get(job, name, path string) (reply, error) {
	r, err := c.call(0, job, name, http.MethodGet, path, nil)
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("bench: GET %s answered %d: %s", path, r.status, bytes.TrimSpace(r.body))
	}
	return r, err
}

// submit posts one campaign and returns the job ID and the ack time.
func (c *cluster) submit(req impeccable.SubmitRequest) (id string, ack time.Duration, err error) {
	r, err := c.call(0, "", "client.submit", http.MethodPost, "/api/v1/campaigns", req)
	if err != nil {
		return "", 0, err
	}
	if r.status != http.StatusAccepted {
		return "", 0, fmt.Errorf("bench: submit answered %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var snap impeccable.JobSnapshot
	if err := json.Unmarshal(r.body, &snap); err != nil {
		return "", 0, fmt.Errorf("bench: decoding submit ack: %w", err)
	}
	c.rec.setJob(r.span, snap.ID)
	return snap.ID, r.dur, nil
}

// result reads a finished job's result body.
func (c *cluster) result(id string) (body []byte, dur time.Duration, err error) {
	r, err := c.get(id, "client.result", "/api/v1/campaigns/"+id+"/result")
	return r.body, r.dur, err
}

// waitDone blocks until the job's event stream ends, which the service
// does right after the terminal event (immediately for a finished job).
func (c *cluster) waitDone(id string) error {
	res, err := c.cli.Get(c.base + "/api/v1/campaigns/" + id + "/events")
	if err != nil {
		return fmt.Errorf("bench: events of %s: %w", id, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: events of %s answered %d", id, res.StatusCode)
	}
	if _, err := io.Copy(io.Discard, res.Body); err != nil {
		return fmt.Errorf("bench: events of %s: %w", id, err)
	}
	return nil
}

// lifecycle is one closed-loop funnel campaign as its client saw it.
type lifecycle struct {
	id               string
	body             []byte
	sum              impeccable.ResultSummary
	ack, read, total time.Duration
}

// campaign submits one campaign, waits for it and reads its result. A
// lifecycle with a non-nil body but an error read a result it could not
// decode.
func (c *cluster) campaign(req impeccable.SubmitRequest) (lifecycle, error) {
	var l lifecycle
	var err error
	start := time.Now()
	if l.id, l.ack, err = c.submit(req); err != nil {
		return l, err
	}
	if err = c.waitDone(l.id); err != nil {
		return l, err
	}
	if l.body, l.read, err = c.result(l.id); err != nil {
		return l, err
	}
	l.total = time.Since(start)
	if err = json.Unmarshal(l.body, &l.sum); err != nil {
		return l, fmt.Errorf("bench: decoding result of %s: %w", l.id, err)
	}
	return l, nil
}

// status reads one job's snapshot.
func (c *cluster) status(id string) (impeccable.JobSnapshot, error) {
	var snap impeccable.JobSnapshot
	r, err := c.get(id, "client.status", "/api/v1/campaigns/"+id)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(r.body, &snap); err != nil {
		return snap, fmt.Errorf("bench: decoding status of %s: %w", id, err)
	}
	return snap, nil
}

// scrape reads /metrics and reports how long the scrape took.
func (c *cluster) scrape() (promScrape, time.Duration, error) {
	r, err := c.get("", "client.metrics", "/metrics")
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProm(bytes.NewReader(r.body))
	return p, r.dur, err
}

// cacheEntries reads how many entries the coordinator's score and
// feature caches hold.
func (c *cluster) cacheEntries() (int, error) {
	r, err := c.get("", "client.cache", "/api/v1/cache")
	if err != nil {
		return 0, err
	}
	var st struct {
		Scores   impeccable.CacheStats `json:"scores"`
		Features impeccable.CacheStats `json:"features"`
	}
	if err := json.Unmarshal(r.body, &st); err != nil {
		return 0, fmt.Errorf("bench: decoding cache stats: %w", err)
	}
	return st.Scores.Entries + st.Features.Entries, nil
}

// stateBytes sums the journal segments and blobs under a state dir —
// what the service's history costs on disk.
func stateBytes(dir string) (journal, blobs int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		switch {
		case filepath.Dir(rel) == "." && filepath.Ext(rel) == ".jsonl":
			journal += info.Size()
		case filepath.Dir(rel) != ".":
			blobs += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("bench: listing state dir: %w", err)
	}
	return journal, blobs, nil
}
