// In-process lease holders: the -workers=N path is the lease protocol
// driven by function call, so everything a lease can suffer — user
// cancel, preemption — applies to in-process runs too.
package service

import (
	"reflect"
	"strings"
	"testing"
	"time"
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
