// Lease holders. The TestHolder* tests pin Holder's one policy against
// a fake transport and stub science; the TestInProcess* tests show the
// -workers=N path is the lease protocol driven by function call, so
// everything a lease can suffer — user cancel, preemption — applies to
// in-process runs too.
package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"impeccable/internal/campaign"
	"impeccable/internal/dock"
	"impeccable/internal/receptor"
)

// waitLocalLease polls until an in-process holder has the job.
func waitLocalLease(t *testing.T, s *Service, id string) JobSnapshot {
	t.Helper()
	var snap JobSnapshot
	waitFor(t, "job "+id+" to be leased in-process", func() bool {
		snap, _ = s.Status(id)
		return snap.State == StateLeased
	})
	if !strings.HasPrefix(snap.Worker, localWorkerPrefix) {
		t.Fatalf("job %s leased by %q, want an in-process holder", id, snap.Worker)
	}
	return snap
}

// TestInProcessLeaseCancel: a user cancel of an in-process lease is
// terminal at once (journaled before the ack, like any lease) and the
// holder abandons the run at its next heartbeat, freeing the slot.
func TestInProcessLeaseCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real campaigns")
	}
	dir := stateDirForTest(t)
	s, err := Open(Options{Workers: 1, CacheShards: 8, StateDir: dir, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	// Minutes of work if the cancel did not reach the run.
	big := smallReq()
	big.LibrarySize = 4000
	big.TrainSize = 800
	big.FastProtocols = false
	idBig, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	waitLocalLease(t, s, idBig)
	if !s.Cancel(idBig) {
		t.Fatal("cancel refused")
	}
	if snap, _ := s.Status(idBig); snap.State != StateCanceled || snap.Finished == nil {
		t.Fatalf("in-process lease right after cancel = %+v, want canceled", snap)
	}
	// The only holder comes free within a heartbeat, not when the big
	// run would have ended.
	idNext, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	waitLocalLease(t, s, idNext)
	if snap, err := s.Wait(idNext, 5*time.Minute); err != nil || snap.State != StateDone {
		t.Fatalf("job behind the canceled run = %+v, %v", snap, err)
	}
	if got, want := journalKinds(t, dir, idBig), "submitted,leased,canceled,sealed"; got != want {
		t.Fatalf("canceled job's journal = %s, want %s", got, want)
	}
}

// TestInProcessLeasePreemption: an in-process lease is as preemptible
// as a remote one — the starved priority job takes the freed holder,
// and the preempted job's rerun is byte-identical to an uninterrupted
// run.
func TestInProcessLeasePreemption(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several (small) campaigns")
	}
	dir := stateDirForTest(t)
	s, err := Open(Options{Workers: 1, CacheShards: 8, StateDir: dir,
		LeaseTTL: time.Second, PreemptAfter: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	hogReq := tenantReq("hog", 0)
	hogReq.LibrarySize = 1200
	hogReq.TrainSize = 240
	hogID, err := s.Submit(hogReq)
	if err != nil {
		t.Fatal(err)
	}
	waitLocalLease(t, s, hogID)
	vipID, err := s.Submit(tenantReq("vip", 1))
	if err != nil {
		t.Fatal(err)
	}
	vip, err := s.Wait(vipID, 2*time.Minute)
	if err != nil || vip.State != StateDone {
		t.Fatalf("vip job = %+v, %v", vip, err)
	}
	hog, err := s.Wait(hogID, 5*time.Minute)
	if err != nil || hog.State != StateDone {
		t.Fatalf("preempted job = %+v, %v", hog, err)
	}
	// One holder: the vip job can only have finished first by taking
	// the slot the hog was revoked from.
	if !vip.Finished.Before(*hog.Finished) {
		t.Fatalf("vip finished %v, hog %v: the starved job did not get the freed slot", vip.Finished, hog.Finished)
	}
	if got, want := journalKinds(t, dir, hogID), "submitted,leased,requeued,leased,done,sealed"; got != want {
		t.Fatalf("preempted job's journal = %s, want %s", got, want)
	}
	if v := s.met.tenantPreemptions.With("hog").Value(); v != 1 {
		t.Fatalf("tenant_preemptions{hog} = %v, want 1", v)
	}

	// The rerun's science matches a run nobody interrupted.
	ref := NewService(Options{Workers: 1, CacheShards: 8})
	defer ref.Shutdown()
	refID, err := ref.Submit(hogReq)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := ref.Wait(refID, 5*time.Minute); err != nil || snap.State != StateDone {
		t.Fatalf("reference run = %+v, %v", snap, err)
	}
	got, err := s.Result(hogID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Result(refID)
	if err != nil {
		t.Fatal(err)
	}
	// The aborted first attempt left docking labels in the shared cache,
	// so only the cost ledger may differ.
	if !reflect.DeepEqual(science(got.Funnel.Counts()), science(want.Funnel.Counts())) ||
		!reflect.DeepEqual(got.Top, want.Top) || got.ScientificYield != want.ScientificYield {
		t.Fatalf("preempted rerun diverged from an uninterrupted run:\n%+v\nvs\n%+v", got, want)
	}
}

// journalKinds renders one job's journaled event kinds, in order.
func journalKinds(t *testing.T, dir, id string) string {
	t.Helper()
	events, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ev := range events {
		if ev.Job == id {
			kinds = append(kinds, string(ev.Kind))
		}
	}
	return strings.Join(kinds, ",")
}

// fakeTransport grants one job and records what the holder sends back;
// onBeat answers the n-th heartbeat (1-based), nil meaning success.
type fakeTransport struct {
	grant  *LeaseGrant
	onBeat func(n int, stage string) error

	mu        sync.Mutex
	beats     []string  // stage of each heartbeat, in order
	fracs     []float64 // progress of each heartbeat, in order
	completes []WorkerResult
}

func (f *fakeTransport) Lease(context.Context) (*LeaseGrant, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := f.grant
	f.grant = nil
	return g, nil
}

func (f *fakeTransport) Heartbeat(_ context.Context, _ *LeaseGrant, stage string, progress float64) error {
	f.mu.Lock()
	f.beats = append(f.beats, stage)
	f.fracs = append(f.fracs, progress)
	n := len(f.beats)
	f.mu.Unlock()
	if f.onBeat == nil {
		return nil
	}
	return f.onBeat(n, stage)
}

func (f *fakeTransport) Complete(_ context.Context, _ *LeaseGrant, res WorkerResult, _ *campaign.Result) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.completes = append(f.completes, res)
	return nil
}

func (f *fakeTransport) seen() (beats []string, fracs []float64, completes []WorkerResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.beats), slices.Clone(f.fracs), slices.Clone(f.completes)
}

// fakeHolder wires a holder to a one-job fake transport and a stub in
// place of the science, so the policy runs in milliseconds.
func fakeHolder(target string, ttl time.Duration, run func(campaign.Config) (*campaign.Result, error)) (*Holder, *fakeTransport) {
	tr := &fakeTransport{grant: &LeaseGrant{JobID: "job-000001", Req: SubmitRequest{Target: target}, TTLSeconds: ttl.Seconds()}}
	return &Holder{
		Transport: tr,
		Name:      "test-holder",
		Targets:   map[string]*receptor.Target{"PLPro": receptor.PLPro()},
		Scores:    func(*LeaseGrant) (dock.ScoreCache, func(*WorkerResult)) { return nil, nil },
		Logf:      func(string, ...any) {},
		run: func(cfg campaign.Config, _ *campaign.Pool, _ uint64) (*campaign.Result, error) {
			return run(cfg)
		},
	}, tr
}

// untilCanceled is a stub campaign that reports one stage and then runs
// until its cancel channel closes (or, if it never does, ends well).
func untilCanceled(canceled *atomic.Bool) func(campaign.Config) (*campaign.Result, error) {
	return func(cfg campaign.Config) (*campaign.Result, error) {
		cfg.Progress("s1-train", 0.02)
		select {
		case <-cfg.Cancel:
			canceled.Store(true)
			return nil, campaign.ErrCanceled
		case <-time.After(10 * time.Second):
			return &campaign.Result{}, nil
		}
	}
}

// runOne runs the holder's single job and checks one was leased.
func runOne(t *testing.T, ctx context.Context, h *Holder) {
	t.Helper()
	if ran, err := h.RunOne(ctx); !ran || err != nil {
		t.Fatalf("RunOne = %v, %v", ran, err)
	}
}

// TestHolderLeaseLostAborts: a heartbeat answered lease-lost aborts the
// run, which is abandoned — nothing is completed.
func TestHolderLeaseLostAborts(t *testing.T) {
	var canceled atomic.Bool
	h, tr := fakeHolder("PLPro", 30*time.Second, untilCanceled(&canceled))
	tr.onBeat = func(int, string) error { return fmt.Errorf("%w: job is canceled", ErrLeaseLost) }
	runOne(t, context.Background(), h)
	if _, _, completes := tr.seen(); !canceled.Load() || len(completes) != 0 {
		t.Fatalf("canceled=%v, completes=%+v; want an abort and no complete", canceled.Load(), completes)
	}
}

// TestHolderBeatErrorsAbortAfterFullTTL: failed deliveries abort the
// run only once a full TTL has passed without a successful beat; a
// success in between restarts the count.
func TestHolderBeatErrorsAbortAfterFullTTL(t *testing.T) {
	down := errors.New("connection refused")
	t.Run("never recovers", func(t *testing.T) {
		const ttl = 300 * time.Millisecond
		var canceled atomic.Bool
		h, tr := fakeHolder("PLPro", ttl, untilCanceled(&canceled))
		tr.onBeat = func(int, string) error { return down }
		start := time.Now()
		runOne(t, context.Background(), h)
		if _, _, completes := tr.seen(); !canceled.Load() || time.Since(start) < ttl || len(completes) != 0 {
			t.Fatalf("canceled=%v after %v, completes=%+v; want an abort no sooner than %v, no complete",
				canceled.Load(), time.Since(start), completes, ttl)
		}
	})
	t.Run("recovers", func(t *testing.T) {
		// Beats alternate failure and success, so only a stall of a whole
		// TTL between two of them could abort the run.
		const ttl = 900 * time.Millisecond
		h, tr := fakeHolder("PLPro", ttl, func(cfg campaign.Config) (*campaign.Result, error) {
			select {
			case <-cfg.Cancel:
				return nil, campaign.ErrCanceled
			case <-time.After(3 * ttl / 2):
				return &campaign.Result{}, nil
			}
		})
		tr.onBeat = func(n int, _ string) error {
			if n%2 == 1 {
				return down
			}
			return nil
		}
		runOne(t, context.Background(), h)
		if _, _, completes := tr.seen(); len(completes) != 1 || completes[0].Summary == nil {
			t.Fatalf("completes = %+v, want one success: every other beat got through", completes)
		}
	})
}

// TestHolderPanicFailsOnce: a panicking campaign is one failed
// complete, not a crashed holder.
func TestHolderPanicFailsOnce(t *testing.T) {
	h, tr := fakeHolder("PLPro", 30*time.Second, func(campaign.Config) (*campaign.Result, error) {
		panic("kernel blew up")
	})
	runOne(t, context.Background(), h)
	if _, _, c := tr.seen(); len(c) != 1 || c[0].Summary != nil || !strings.Contains(c[0].Error, "panicked") {
		t.Fatalf("completes = %+v, want one failure naming the panic", c)
	}
}

// TestHolderUnknownTargetFails: a grant for a target the holder does
// not serve fails at once, and the science never starts.
func TestHolderUnknownTargetFails(t *testing.T) {
	var ran atomic.Bool
	h, tr := fakeHolder("Mpro-from-the-future", 30*time.Second, func(campaign.Config) (*campaign.Result, error) {
		ran.Store(true)
		return &campaign.Result{}, nil
	})
	runOne(t, context.Background(), h)
	beats, _, c := tr.seen()
	if ran.Load() || len(beats) != 0 || len(c) != 1 || !strings.Contains(c[0].Error, "unknown target") {
		t.Fatalf("ran=%v beats=%v completes=%+v; want one unknown-target failure and no run", ran.Load(), beats, c)
	}
}

// TestHolderContextCancelAbandons: a canceled context (a drain, a
// worker shutting down) aborts the run and completes nothing.
func TestHolderContextCancelAbandons(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var canceled atomic.Bool
	h, tr := fakeHolder("PLPro", 30*time.Second, func(cfg campaign.Config) (*campaign.Result, error) {
		cancel()
		return untilCanceled(&canceled)(cfg)
	})
	runOne(t, ctx, h)
	if _, _, c := tr.seen(); !canceled.Load() || len(c) != 0 {
		t.Fatalf("canceled=%v completes=%+v; want an abort and no complete", canceled.Load(), c)
	}
}

// TestHolderStageChangeBeatsBeforeTick: a stage change is heartbeat at
// once — with a 30s TTL the next tick is 10s away — and the campaign
// never waits on the beat: stage reports made while a heartbeat hangs
// return at once and coalesce into the next beat, progress monotonic.
func TestHolderStageChangeBeatsBeforeTick(t *testing.T) {
	release := make(chan struct{})
	var h *Holder
	var tr *fakeTransport
	waitBeat := func(stage string) {
		waitFor(t, "a heartbeat for stage "+stage, func() bool {
			beats, _, _ := tr.seen()
			return slices.Contains(beats, stage)
		})
	}
	h, tr = fakeHolder("PLPro", 30*time.Second, func(cfg campaign.Config) (*campaign.Result, error) {
		cfg.Progress("s1-train", 0.02)
		waitBeat("s1-train") // that beat now hangs until release
		cfg.Progress("ml1-train", 0.5)
		cfg.Progress("ml1-screen", 0.3)
		close(release)
		waitBeat("ml1-screen")
		return &campaign.Result{}, nil
	})
	tr.onBeat = func(n int, _ string) error {
		if n == 1 {
			<-release
		}
		return nil
	}
	runOne(t, context.Background(), h)
	beats, fracs, c := tr.seen()
	if len(c) != 1 || c[0].Summary == nil {
		t.Fatalf("completes = %+v, want one success", c)
	}
	if want := []string{"s1-train", "ml1-screen"}; !slices.Equal(beats, want) || fracs[1] != 0.5 {
		t.Fatalf("beats = %v at %v, want %v with progress held at 0.5", beats, fracs, want)
	}
}

// TestHolderBeatIntervalClamped: the tick is TTL/3 within [20ms, 10s].
func TestHolderBeatIntervalClamped(t *testing.T) {
	for _, c := range []struct{ ttl, want time.Duration }{
		{time.Millisecond, 20 * time.Millisecond},
		{60 * time.Millisecond, 20 * time.Millisecond},
		{3 * time.Second, time.Second},
		{30 * time.Second, 10 * time.Second},
		{5 * time.Minute, 10 * time.Second},
	} {
		if got := beatInterval(c.ttl); got != c.want {
			t.Errorf("beatInterval(%v) = %v, want %v", c.ttl, got, c.want)
		}
	}
}
