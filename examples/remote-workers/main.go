// Remote workers: run the campaign service as a pure coordinator
// (zero in-process workers) and attach two pull-based workers through
// the lease API — the same protocol cmd/impeccable-worker speaks
// across machines, here in one process for a self-contained demo.
//
// Three campaigns are submitted; once the first is under way, worker 1
// is killed mid-job. Its lease expires, the coordinator re-enqueues
// the job under its original ID, and worker 2 finishes everything —
// the printout shows the lease handoffs, which worker ran each job,
// and the worker cache deltas merged back into the coordinator.
//
//	go run ./examples/remote-workers
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"impeccable"
)

func main() {
	coord := impeccable.NewService(impeccable.ServiceOptions{
		RemoteOnly: true,            // no in-process execution: leases only
		LeaseTTL:   2 * time.Second, // a worker silent this long loses its job
	})
	defer coord.Shutdown()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	fmt.Printf("coordinator at %s (zero in-process workers)\n", srv.URL)

	// Two workers pull from the coordinator, exactly like two
	// `impeccable-worker -server ...` processes on other machines.
	ctx1, kill1 := context.WithCancel(context.Background())
	ctx2, stop2 := context.WithCancel(context.Background())
	defer stop2()
	quiet := func(string, ...any) {}
	w1 := impeccable.NewWorker(impeccable.WorkerOptions{
		Server: srv.URL, ID: "worker-1", Poll: 50 * time.Millisecond, Logf: quiet,
	})
	w2 := impeccable.NewWorker(impeccable.WorkerOptions{
		Server: srv.URL, ID: "worker-2", Poll: 50 * time.Millisecond, Logf: quiet,
	})
	go func() { _ = w1.Run(ctx1) }()
	go func() { _ = w2.Run(ctx2) }()

	req := impeccable.SubmitRequest{
		Target:        "PLPro",
		LibrarySize:   1000,
		TrainSize:     200,
		CGCount:       3,
		TopCompounds:  2,
		OutliersPer:   2,
		FastProtocols: true,
	}
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		r := req
		r.Seed = seed
		id, err := coord.Submit(r)
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
		fmt.Printf("submitted %s (seed %d)\n", id, seed)
	}

	// Wait until some job is leased and making progress, then kill
	// worker 1 — no goodbye, no complete, just silence (what a machine
	// failure looks like to the coordinator).
	for {
		if snap, ok := leasedJob(coord); ok && snap.Progress > 0 {
			fmt.Printf("\n%s is running on %s (%s, %.0f%%) — killing worker-1\n",
				snap.ID, snap.Worker, snap.Stage, 100*snap.Progress)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	kill1()

	fmt.Println("worker-1 dead; its lease will expire and the job re-enqueues...")
	for _, id := range ids {
		snap, err := coord.Wait(id, 5*time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		if snap.State != impeccable.JobDone {
			log.Fatalf("job %s ended %s: %s", id, snap.State, snap.Error)
		}
		fmt.Printf("  %s done on %-9s in %.1fs\n", id, snap.Worker, snap.Duration().Seconds())
	}

	// Let the last worker finish reading its complete response (the
	// coordinator marks the job done mid-POST, so Wait can win by a
	// hair) before reading the per-worker counters.
	time.Sleep(200 * time.Millisecond)

	// The workers posted the docking results they computed with each
	// completion; the coordinator's sharded score cache holds them now.
	fmt.Printf("\ncoordinator score cache after merges: %d entries\n", coord.ScoreCacheStats().Entries)
	fmt.Printf("worker-1 completed %d jobs, worker-2 completed %d\n",
		w1.Completed(), w2.Completed())
	fmt.Println("every job survived the worker kill — fault tolerance lives in the lease")
}

// leasedJob returns some currently leased job's snapshot.
func leasedJob(s *impeccable.Service) (impeccable.JobSnapshot, bool) {
	jobs := s.JobsFiltered(impeccable.JobQuery{State: impeccable.JobLeased, Limit: 1})
	if len(jobs) == 0 {
		return impeccable.JobSnapshot{}, false
	}
	return jobs[0], true
}
