package worker

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"impeccable/internal/service"
)

// journaled is what these tests read back from a state dir's journal.
type journaled struct {
	Kind string `json:"kind"`
	Job  string `json:"job"`
}

// readJournaled parses every event in the state dir's journal segments,
// in order.
func readJournaled(t *testing.T, dir string) []journaled {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments under %s (err=%v)", dir, err)
	}
	var out []journaled
	for _, seg := range segs { // Glob sorts; fixed-width names sort numerically
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			var ev journaled
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			out = append(out, ev)
		}
		f.Close()
	}
	return out
}

// kindsOf renders one job's journaled event kinds, in order.
func kindsOf(events []journaled, job string) string {
	var kinds []string
	for _, ev := range events {
		if ev.Job == job {
			kinds = append(kinds, ev.Kind)
		}
	}
	return strings.Join(kinds, ",")
}

// stagedBeforeEnd reads a finished job's retained event replay over
// SSE and reports whether a progress event carrying a stage comes
// before the terminal event.
func stagedBeforeEnd(t *testing.T, url, id string) bool {
	t.Helper()
	resp, err := http.Get(url + "/api/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Terminal():
			return false
		case ev.Type == "progress" && ev.Stage != "":
			return true
		}
	}
	return false
}

// runWorker starts a worker polling the coordinator; the returned stop
// function kills it and waits, so it cannot log into a finished test.
func runWorker(t *testing.T, url, id string) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = newWorker(t, url, id, 0).Run(ctx)
	}()
	return func() { cancel(); <-done }
}

// TestOnePathLocalAndRemoteAgree: there is one job lifecycle. The same
// submission run by an in-process lease holder and by a Worker over
// HTTP journals the same event sequence and produces identical science.
func TestOnePathLocalAndRemoteAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full (small) campaigns")
	}
	const lifecycle = "submitted,leased,done,sealed"

	localDir := t.TempDir()
	local, err := service.Open(service.Options{Workers: 1, CacheShards: 8, StateDir: localDir})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Shutdown()
	localID, err := local.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := local.Wait(localID, 5*time.Minute)
	if err != nil || snap.State != service.StateDone {
		t.Fatalf("in-process job = %+v, %v", snap, err)
	}
	if !strings.HasPrefix(snap.Worker, "local/") {
		t.Fatalf("in-process job's worker = %q, want local/<n>", snap.Worker)
	}
	localSum, err := local.Result(localID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.FullResult(localID); err != nil {
		t.Fatalf("in-process holder did not hand over its full result: %v", err)
	}

	remoteDir := t.TempDir()
	remote, srv := newCoordinator(t, service.Options{StateDir: remoteDir})
	remoteID, err := remote.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	defer runWorker(t, srv.URL, "w-remote")()
	snap, err = remote.Wait(remoteID, 5*time.Minute)
	if err != nil || snap.State != service.StateDone || snap.Worker != "w-remote" {
		t.Fatalf("remote job = %+v, %v", snap, err)
	}
	remoteSum, err := remote.Result(remoteID)
	if err != nil {
		t.Fatal(err)
	}

	// Both sides publish progress under the one heartbeat policy: the
	// first stage change is beat at once, not at the TTL/3 tick a small
	// campaign ends before.
	localSrv := httptest.NewServer(local.Handler())
	defer localSrv.Close()
	for _, side := range []struct{ name, url, id string }{
		{"in-process", localSrv.URL, localID}, {"remote", srv.URL, remoteID},
	} {
		if !stagedBeforeEnd(t, side.url, side.id) {
			t.Fatalf("%s job's event replay has no staged progress event before its terminal event", side.name)
		}
	}
	if got := kindsOf(readJournaled(t, localDir), localID); got != lifecycle {
		t.Fatalf("in-process journal = %s, want %s", got, lifecycle)
	}
	if got := kindsOf(readJournaled(t, remoteDir), remoteID); got != lifecycle {
		t.Fatalf("remote journal = %s, want %s", got, lifecycle)
	}
	assertIdentical(t, "in-process holder vs remote worker", localSum, remoteSum)
}

// TestMixedHoldersDrainOneQueue: an in-process holder and a remote
// worker pull from the same queue through the same lease calls; every
// job goes terminal exactly once, whoever ran it.
func TestMixedHoldersDrainOneQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several (small) campaigns")
	}
	dir := t.TempDir()
	s, err := service.Open(service.Options{Workers: 1, CacheShards: 8, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, s)
	var ids []string
	for i := 0; i < 4; i++ {
		req := smallReq()
		req.LibOffset = uint64(i) * 1000
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	defer runWorker(t, srv.URL, "w-mixed")()

	ran := map[string]int{}
	for _, id := range ids {
		snap, err := s.Wait(id, 5*time.Minute)
		if err != nil || snap.State != service.StateDone {
			t.Fatalf("job %s = %+v, %v", id, snap, err)
		}
		ran[snap.Worker]++
	}
	if ran["local/0"] == 0 || ran["w-mixed"] == 0 || ran["local/0"]+ran["w-mixed"] != len(ids) {
		t.Fatalf("jobs per holder = %v, want both local/0 and w-mixed to have run some of %d", ran, len(ids))
	}
	events := readJournaled(t, dir)
	for _, id := range ids {
		// No requeue, no second grant, one terminal event: a job is never
		// handed to both holders.
		if got, want := kindsOf(events, id), "submitted,leased,done,sealed"; got != want {
			t.Fatalf("job %s journal = %s, want %s", id, got, want)
		}
	}
}
