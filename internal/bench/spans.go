package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made (or, for coordinator.* spans,
// served). Spans of one job share Job; Parent is the ID of the span
// that caused this one, 0 for a root.
type span struct {
	ID     int
	Parent int
	Job    string
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so call sites need no
// branches and the untraced path pays one nil check.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(parent int, job, name string, start, end time.Time) int {
	id := r.reserve()
	r.finish(id, parent, job, name, start, end)
	return id
}

// reserve allocates a span ID before the call it times has finished, so
// the request can carry the ID to the recording handler; finish fills
// the span in.
func (r *recorder) reserve() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1})
	return len(r.spans)
}

func (r *recorder) finish(id, parent int, job, name string, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1] = span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	}
}

// setJob names the job of a span recorded before its job was known (a
// submit learns the ID from its ack, a lease from its grant).
func (r *recorder) setJob(id int, job string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Job = job
	r.mu.Unlock()
}

// snapshot returns the recorded spans with every span's Job inherited
// from its nearest ancestor that has one (a coordinator.* span only
// knows its parent's ID when it is recorded).
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	for i := range out {
		for p := out[i].Parent; out[i].Job == "" && p > 0 && p <= len(out); p = out[p-1].Parent {
			out[i].Job = out[p-1].Job
		}
	}
	return out
}

// spanHeader carries a client span's ID to the recording handler.
const spanHeader = "X-Bench-Span"

// handler wraps the coordinator's handler so each request leaves a
// coordinator.<route> span, parented to the client span named in the
// request. This is the only place server time is observed: the program
// itself is not instrumented (ROADMAP item 5).
func (r *recorder) handler(next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, req)
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
		r.add(parent, "", "coordinator."+routeName(req.Method, req.URL.Path), start, time.Now())
	})
}

// routeName maps a request to the short route label used in span names
// and per-layer metrics.
func routeName(method, path string) string {
	switch {
	case path == "/api/v1/campaigns" && method == http.MethodPost:
		return "submit"
	case path == "/api/v1/worker/lease":
		return "lease"
	case path == "/api/v1/worker/heartbeat":
		return "heartbeat"
	case path == "/api/v1/worker/complete":
		return "complete"
	case strings.HasSuffix(path, "/result"):
		return "result"
	case strings.HasSuffix(path, "/provenance"):
		return "provenance"
	case strings.HasSuffix(path, "/events"):
		return "events"
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case path == "/api/v1/cache":
		return "cache"
	case strings.HasPrefix(path, "/api/v1/campaigns/"):
		return "status"
	}
	return "other"
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children are
// merged first, so two concurrent children do not subtract twice, and
// child time outside the parent's window is ignored.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// byName groups span durations (milliseconds) by span name.
func byName(spans []span) map[string]series {
	out := make(map[string]series)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/float64(time.Millisecond))
	}
	return out
}

// selfByName groups span self-times (milliseconds) by span name.
func selfByName(spans []span) map[string]series {
	self := selfTimes(spans)
	out := make(map[string]series)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/float64(time.Millisecond))
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as a Chrome trace (chrome://tracing,
// Perfetto). Each layer (the part of the span name before the dot) is a
// thread row; job and parent links travel in args.
func writeChromeTrace(path string, spans []span) error {
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		tid, ok := tids[layer]
		if !ok {
			tid = len(tids) + 1
			tids[layer] = tid
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			PID: 1, TID: tid,
			Args: map[string]any{"job": s.Job, "id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents": events, "displayTimeUnit": "ms", "otherData": fingerprint(),
	})
	if err != nil {
		return fmt.Errorf("bench: encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing trace: %w", err)
	}
	return nil
}
