// Service client: start the campaign service in-process, then act as two
// tenants submitting overlapping campaigns over its HTTP API. The second
// tenant's campaign is served largely from the shared docking-score
// cache — the printout shows the live job states, the eval counts of
// both campaigns and the cache hit rate.
//
// The service runs with a state directory, so the second act
// demonstrates crash-safety: the service drains, a fresh instance
// reopens the same directory, serves both finished results straight
// from the journal, and a resubmission against the restored cache
// checkpoint spends zero docking evaluations.
//
//	go run ./examples/service-client
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"impeccable"
)

func main() {
	stateDir, err := os.MkdirTemp("", "impeccable-state-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)

	svc, err := impeccable.OpenService(impeccable.ServiceOptions{
		Workers:  2,
		StateDir: stateDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	fmt.Printf("campaign service listening at %s (state: %s)\n\n", srv.URL, stateDir)

	req := impeccable.SubmitRequest{
		Target:        "PLPro",
		LibrarySize:   800,
		TrainSize:     160,
		CGCount:       4,
		TopCompounds:  2,
		OutliersPer:   2,
		Seed:          1,
		FastProtocols: true,
	}

	fmt.Println("tenant A submits a PLPro campaign (cold cache)...")
	idA, sumA := runJob(srv.URL, req)
	fmt.Println("tenant B submits the same screen (warm cache)...")
	_, sumB := runJob(srv.URL, req)

	fmt.Printf("\ntenant A spent %d docking evaluations (%d cache hits)\n",
		sumA.Funnel.DockEvals, sumA.Funnel.DockCacheHits)
	fmt.Printf("tenant B spent %d docking evaluations (%d cache hits)\n",
		sumB.Funnel.DockEvals, sumB.Funnel.DockCacheHits)
	if sumA.Funnel.DockEvals > 0 {
		fmt.Printf("shared cache saved tenant B %.0f%% of the docking work\n",
			100*(1-float64(sumB.Funnel.DockEvals)/float64(sumA.Funnel.DockEvals)))
	}

	var cache struct {
		Scores impeccable.CacheStats `json:"scores"`
	}
	getJSON(srv.URL+"/api/v1/cache", &cache)
	fmt.Printf("\nscore cache: %d entries, hit rate %.0f%%\n",
		cache.Scores.Entries, 100*cache.Scores.HitRate)

	// Act two: the "server" goes away and comes back on the same state
	// dir. Nothing reruns — the journal already has both results — and a
	// third tenant's identical submission runs entirely from the
	// restored cache checkpoint.
	fmt.Println("\ndraining the service and reopening the state dir...")
	srv.Close()
	svc.Shutdown()

	svc2, err := impeccable.OpenService(impeccable.ServiceOptions{
		Workers:  2,
		StateDir: stateDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc2.Shutdown()
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()

	var jobs []impeccable.JobSnapshot
	getJSON(srv2.URL+"/api/v1/campaigns", &jobs)
	fmt.Printf("recovered %d jobs from the journal:\n", len(jobs))
	for _, j := range jobs {
		fmt.Printf("  %-10s %-9s ran %.1fs\n", j.ID, j.State, j.Duration().Seconds())
	}
	var sumA2 impeccable.ResultSummary
	getJSON(srv2.URL+"/api/v1/campaigns/"+idA+"/result", &sumA2)
	fmt.Printf("tenant A's result survives the restart (%d screened, %d docked, %d top compounds)\n",
		sumA2.Funnel.Screened, sumA2.Funnel.Docked, len(sumA2.Top))

	fmt.Println("tenant C submits the same screen against the restored cache...")
	_, sumC := runJob(srv2.URL, req)
	fmt.Printf("tenant C spent %d docking evaluations (%d cache hits) — the checkpoint kept the cache warm\n",
		sumC.Funnel.DockEvals, sumC.Funnel.DockCacheHits)
}

// runJob submits one campaign and polls its status until done.
func runJob(base string, req impeccable.SubmitRequest) (string, impeccable.ResultSummary) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var snap impeccable.JobSnapshot
	decode(resp, &snap)
	start := time.Now()
	lastStage := ""
	for !snap.State.Terminal() {
		time.Sleep(100 * time.Millisecond)
		getJSON(base+"/api/v1/campaigns/"+snap.ID, &snap)
		if snap.Stage != lastStage {
			fmt.Printf("  %-10s %-10s %3.0f%%\n", snap.ID, snap.Stage, 100*snap.Progress)
			lastStage = snap.Stage
		}
	}
	if snap.State != impeccable.JobDone {
		log.Fatalf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	fmt.Printf("  %-10s done in %.1fs\n", snap.ID, time.Since(start).Seconds())
	var sum impeccable.ResultSummary
	getJSON(base+"/api/v1/campaigns/"+snap.ID+"/result", &sum)
	return snap.ID, sum
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func decode(resp *http.Response, out any) {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
