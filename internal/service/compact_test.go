package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"impeccable/internal/blob"
	"impeccable/internal/campaign"
)

// benchSummary fabricates a ResultSummary whose JSON sits below the
// default inline limit but is heavy enough that parsing it dominates
// an uncompacted replay. salt makes each job's summary distinct, so
// the content-addressed store cannot collapse them into one blob.
func benchSummary(salt int) ResultSummary {
	sum := ResultSummary{ScientificYield: float64(salt)}
	sum.Top = make([]campaign.TopComparison, 200)
	for i := range sum.Top {
		sum.Top[i] = campaign.TopComparison{
			MolID: uint64(salt*1000 + i),
			CG:    -7.5 - float64(i)/997,
			FG:    -8.1 - float64(i)/991,
			CGErr: 0.4, FGErr: 0.2,
			Truth: -8.0 - float64(salt)/1009,
		}
	}
	return sum
}

// terminalJobEvents is one finished job's raw event batch.
func terminalJobEvents(i int, sum ResultSummary) []journalEvent {
	id := fmt.Sprintf("job-%06d", i)
	req := smallReq()
	req.Seed = uint64(i)
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
	return []journalEvent{
		{Kind: evSubmitted, Job: id, Time: t0, Req: &req},
		{Kind: evStarted, Job: id, Time: t0.Add(time.Second)},
		{Kind: evDone, Job: id, Time: t0.Add(2 * time.Second), Summary: &sum},
	}
}

// fillJournal appends n finished jobs in batches and returns the store.
func fillJournal(tb testing.TB, dir string, segmentBytes int64, inlineLimit, n int) blob.Store {
	tb.Helper()
	store, err := blob.Open(filepath.Join(dir, blobDirName))
	if err != nil {
		tb.Fatal(err)
	}
	jl, _, err := openJournal(dir, store, segmentBytes, inlineLimit)
	if err != nil {
		tb.Fatal(err)
	}
	// Small batches so rotation (checked once per batch) actually
	// triggers at the tiny segment sizes the tests use.
	const batch = 5
	for lo := 1; lo <= n; lo += batch {
		var evs []journalEvent
		for i := lo; i <= n && i < lo+batch; i++ {
			evs = append(evs, terminalJobEvents(i, benchSummary(i))...)
		}
		if err := jl.append(evs...); err != nil {
			tb.Fatal(err)
		}
	}
	if err := jl.close(); err != nil {
		tb.Fatal(err)
	}
	return store
}

// jobDigest projects a replayed job down to the fields a restart must
// preserve.
type jobDigest struct {
	id, state, err string
	seed           uint64
	yield          float64
}

func digestJobs(t *testing.T, jobs []*job, store blob.Store) []jobDigest {
	t.Helper()
	var out []jobDigest
	for _, j := range jobs {
		d := jobDigest{id: j.id, state: string(j.state), err: j.err, seed: j.req.Seed}
		switch {
		case j.result != nil:
			d.yield = j.result.summary.ScientificYield
		case j.summaryRef != nil:
			data, err := store.Get(*j.summaryRef)
			if err != nil {
				t.Fatalf("job %s: summary blob unreadable: %v", j.id, err)
			}
			var sum ResultSummary
			if err := json.Unmarshal(data, &sum); err != nil {
				t.Fatal(err)
			}
			d.yield = sum.ScientificYield
		}
		out = append(out, d)
	}
	return out
}

// TestCompactionRewritesSealedSegments drives the journal directly:
// many finished jobs across many segments collapse into one checkpoint
// segment, and replay before and after compaction agrees.
func TestCompactionRewritesSealedSegments(t *testing.T) {
	dir := t.TempDir()
	store := fillJournal(t, dir, 8<<10, 1<<10, 40)
	jl, events, err := openJournal(dir, store, 8<<10, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if n := jl.segmentCount(); n < 4 {
		t.Fatalf("only %d segments before compaction; the test needs rotations", n)
	}
	preJobs, preMax := replayJournal(events, store)
	pre := digestJobs(t, preJobs, store)

	putsBefore := store.Stats().Puts
	st, err := jl.compact(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.segments < 3 || st.checkpointed == 0 {
		t.Fatalf("compaction stats = %+v, want several segments and checkpoints", st)
	}
	// The summaries were spilled when they were journaled and the small
	// requests stay inline in their checkpoints: nothing left to write.
	if n := store.Stats().Puts - putsBefore; n != 0 {
		t.Fatalf("compaction wrote %d blobs, want 0", n)
	}
	if n := jl.segmentCount(); n > 2 {
		t.Fatalf("%d segments after compaction, want at most 2", n)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	jl2, events2, err := openJournal(dir, store, 8<<10, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	postJobs, postMax := replayJournal(events2, store)
	post := digestJobs(t, postJobs, store)
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("replay diverged across compaction:\npre:  %+v\npost: %+v", pre, post)
	}
	if preMax != postMax {
		t.Fatalf("maxID diverged: %d vs %d", preMax, postMax)
	}
	if r, err := VerifyStateDir(dir); err != nil || !r.Ok() {
		t.Fatalf("verify after compaction: err=%v problems=%v", err, r.Problems)
	}
}

// TestCompactionWritesOnlyLargeSummaries: a compaction beside live
// traffic competes with it for fsyncs, so it writes a blob only where
// that shortens replay — an inline summary above
// checkpointInlineSummary. Requests and tiny summaries stay in the
// checkpoint line as their raw events had them.
func TestCompactionWritesOnlyLargeSummaries(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.Open(filepath.Join(dir, blobDirName))
	if err != nil {
		t.Fatal(err)
	}
	jl, _, err := openJournal(dir, store, 16<<10, 0) // default inline limit: both kinds journal inline
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 1; i <= n; i++ {
		sum := ResultSummary{ScientificYield: float64(i)} // tiny
		if i%2 == 0 {
			sum = benchSummary(i) // ~14 KiB
		}
		if err := jl.append(terminalJobEvents(i, sum)...); err != nil {
			t.Fatal(err)
		}
	}
	if puts := store.Stats().Puts; puts != 0 {
		t.Fatalf("%d blobs written below the inline limit, want 0", puts)
	}
	if _, err := jl.compact(nil); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	jl2, events, err := openJournal(dir, store, 16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	checkpoints := 0
	for _, ev := range events {
		if ev.Kind != evCheckpoint {
			continue
		}
		checkpoints++
		if ev.Req == nil || ev.ReqRef != nil {
			t.Fatalf("checkpoint %s: request was spilled", ev.Job)
		}
		num, _ := jobNumber(ev.Job)
		if large := num%2 == 0; large != (ev.SummaryRef != nil) || large == (ev.Summary != nil) {
			t.Fatalf("checkpoint %s: summary inline=%v ref=%v, want large summaries spilled and tiny ones inline",
				ev.Job, ev.Summary != nil, ev.SummaryRef != nil)
		}
	}
	if checkpoints == 0 {
		t.Fatal("nothing was compacted; the test needs sealed segments")
	}
	if puts := store.Stats().Puts; puts == 0 || puts > n/2 {
		t.Fatalf("compaction wrote %d blobs, want one per large summary it checkpointed (at most %d)", puts, n/2)
	}
	if r, err := VerifyStateDir(dir); err != nil || !r.Ok() {
		t.Fatalf("verify after compaction: err=%v problems=%v", err, r.Problems)
	}
}

// TestCompactionHonorsRetention: jobs the scheduler has pruned past
// MaxJobRecords leave the journal at compaction, and their orphaned
// artifacts become sweepable while retained jobs' artifacts survive.
func TestCompactionHonorsRetention(t *testing.T) {
	dir := t.TempDir()
	store := fillJournal(t, dir, 4<<10, 1<<10, 12)
	jl, _, err := openJournal(dir, store, 4<<10, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Retain only the newest 4 jobs — the scheduler's prune horizon.
	retained := map[string]bool{}
	for i := 9; i <= 12; i++ {
		retained[fmt.Sprintf("job-%06d", i)] = true
	}
	st, err := jl.compact(func(id string) bool { return retained[id] })
	if err != nil {
		t.Fatal(err)
	}
	if st.dropped == 0 {
		t.Fatalf("compaction stats = %+v, want dropped jobs", st)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	jl2, events, err := openJournal(dir, store, 4<<10, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	jobs, maxID := replayJournal(events, store)
	var ids []string
	for _, j := range jobs {
		ids = append(ids, j.id)
	}
	var want []string
	for i := 9; i <= 12; i++ {
		want = append(want, fmt.Sprintf("job-%06d", i))
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("post-prune listing = %v, want %v", ids, want)
	}
	// The ID high-water mark survives pruning: new submissions must not
	// collide with pruned history.
	if maxID != 12 {
		t.Fatalf("maxID = %d, want 12", maxID)
	}

	// Age every blob past the GC grace window, then sweep with the
	// journal's live set: pruned jobs' artifacts go, retained stay.
	agBlobs(t, dir)
	if _, _, err := store.Sweep(jl2.hasRef); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.summaryRef != nil {
			if _, err := store.Get(*j.summaryRef); err != nil {
				t.Fatalf("retained job %s lost its summary to GC: %v", j.id, err)
			}
		}
	}
	if st := store.Stats(); st.Objects > int64(len(jobs)) {
		t.Fatalf("sweep left %d objects for %d retained jobs", st.Objects, len(jobs))
	}
}

// agBlobs backdates every blob object's mtime past the GC grace window.
func agBlobs(t *testing.T, stateDir string) {
	t.Helper()
	old := time.Now().Add(-time.Hour)
	err := filepath.Walk(filepath.Join(stateDir, blobDirName), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.Chtimes(path, old, old)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringCompaction kills the compactor in its vulnerable
// window — checkpoint segment installed, old raw segments not yet
// deleted — and requires the reopened journal to replay to the exact
// same state with no loss, no duplication, and every artifact intact.
func TestCrashDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	store := fillJournal(t, dir, 4<<10, 1<<10, 20)
	jl, events, err := openJournal(dir, store, 4<<10, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	preJobs, preMax := replayJournal(events, store)
	pre := digestJobs(t, preJobs, store)
	preSegs := jl.segmentCount()
	if preSegs < 3 {
		t.Fatalf("only %d segments; the crash window needs raw segments to leave behind", preSegs)
	}

	compactInterrupt = func() bool { return true }
	defer func() { compactInterrupt = nil }()
	if _, err := jl.compact(nil); err != nil {
		t.Fatal(err)
	}
	_ = jl.close()

	// The crash left the checkpoint segment alongside the raw segments
	// it restates: every checkpointed job now appears twice on disk.
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != preSegs {
		t.Fatalf("%d segments after interrupted compaction, want the original %d", len(seqs), preSegs)
	}

	compactInterrupt = nil
	jl2, events2, err := openJournal(dir, store, 4<<10, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	jobs2, max2 := replayJournal(events2, store)
	post := digestJobs(t, jobs2, store)
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("replay diverged across interrupted compaction:\npre:  %+v\npost: %+v", pre, post)
	}
	if preMax != max2 {
		t.Fatalf("maxID diverged: %d vs %d", preMax, max2)
	}
	// The verifier tolerates the duplicate window (dedup by hash).
	if r, err := VerifyStateDir(dir); err != nil || !r.Ok() {
		t.Fatalf("verify after interrupted compaction: err=%v problems=%v", err, r.Problems)
	}

	// GC in the crash window must keep every referenced blob: sweep with
	// everything aged past the grace window, then resolve every ref.
	agBlobs(t, dir)
	if _, _, err := store.Sweep(jl2.hasRef); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs2 {
		if j.summaryRef != nil {
			if _, err := store.Get(*j.summaryRef); err != nil {
				t.Fatalf("job %s summary lost to GC in crash window: %v", j.id, err)
			}
		}
	}

	// The next compaction finishes the interrupted one.
	if _, err := jl2.compact(nil); err != nil {
		t.Fatal(err)
	}
	if n := jl2.segmentCount(); n > 2 {
		t.Fatalf("%d segments after resumed compaction, want at most 2", n)
	}
	if err := jl2.close(); err != nil {
		t.Fatal(err)
	}
	jl3, events3, err := openJournal(dir, store, 4<<10, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer jl3.close()
	jobs3, _ := replayJournal(events3, store)
	if final := digestJobs(t, jobs3, store); !reflect.DeepEqual(pre, final) {
		t.Fatalf("replay diverged after resumed compaction:\npre:   %+v\nfinal: %+v", pre, final)
	}
}

// BenchmarkReplayCold measures the cold-start path — read every
// segment, reduce to job records — over 1000 terminal jobs, before and
// after compaction. Compaction wins by parsing one lean checkpoint
// line per job and leaving result ledgers as lazy blob refs.
func BenchmarkReplayCold(b *testing.B) {
	for _, mode := range []string{"uncompacted", "compacted"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			store := fillJournal(b, dir, 1<<20, 0, 1000)
			if mode == "compacted" {
				jl, _, err := openJournal(dir, store, 1<<20, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := jl.compact(nil); err != nil {
					b.Fatal(err)
				}
				if err := jl.close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events, err := readJournal(dir)
				if err != nil {
					b.Fatal(err)
				}
				jobs, maxID := replayJournal(events, store)
				if len(jobs) != 1000 || maxID != 1000 {
					b.Fatalf("replayed %d jobs (maxID %d), want 1000", len(jobs), maxID)
				}
			}
		})
	}
}
