package service

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"impeccable/internal/blob"
)

// countingStore wraps the blob store the checkpoint writer goes
// through: it counts Puts and can fail the next few.
type countingStore struct {
	blob.Store
	puts atomic.Int64
	fail atomic.Int64 // Puts still to fail
}

func (c *countingStore) Put(data []byte) (blob.Ref, error) {
	if c.fail.Add(-1) >= 0 {
		return blob.Ref{}, errors.New("injected put failure")
	}
	c.puts.Add(1)
	return c.Store.Put(data)
}

// tapSnapshotStore swaps the service's store for a counting one. The
// journal keeps its own handle, so only checkpoint writes are counted.
func tapSnapshotStore(s *Service) *countingStore {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	cs := &countingStore{Store: s.blobs}
	s.blobs = cs
	return cs
}

// openCheckpointService opens a coordinator that executes nothing and
// checkpoints only when told to (or poked by a completion).
func openCheckpointService(t *testing.T, dir string) *Service {
	t.Helper()
	s, err := Open(Options{RemoteOnly: true, CacheShards: 8, StateDir: dir, SnapshotEvery: time.Hour, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mockEntries builds score entries for molecule IDs [from, to).
func mockEntries(target string, from, to uint64) []ScoreEntry {
	var out []ScoreEntry
	for id := from; id < to; id++ {
		out = append(out, ScoreEntry{Target: target, FP: molForTest(id).FP(), Result: mockResult(id)})
	}
	return out
}

// completeWith runs one job lifecycle as a remote worker whose
// completion carries the given score delta.
func completeWith(t *testing.T, s *Service, scores []ScoreEntry) {
	t.Helper()
	id, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Lease("w-ckpt", 0)
	if err != nil || g == nil || g.JobID != id {
		t.Fatalf("lease = %+v, %v", g, err)
	}
	if err := s.Complete("w-ckpt", g.Token, id, WorkerResult{Summary: &ResultSummary{ScientificYield: 0.5}, Scores: scores}); err != nil {
		t.Fatal(err)
	}
}

// readManifest returns the raw caches.snap and its decoded form.
func readManifest(t *testing.T, dir string) ([]byte, snapshotManifest) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var mf snapshotManifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatalf("manifest %s: %v", raw, err)
	}
	return raw, mf
}

// sortedExport is the cache content in a comparable order.
func sortedExport(c *ScoreCache) []ScoreEntry {
	out := c.Export()
	sort.Slice(out, func(i, k int) bool { return out[i].Result.MolID < out[k].Result.MolID })
	return out
}

// blobHashes lists the object names under a state dir's blob store.
func blobHashes(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(filepath.Join(dir, blobDirName), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			out = append(out, info.Name())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestCheckpointSkipsUnchangedCache: a completion without deltas, a
// completion re-shipping labels the cache already holds, and ticker
// fires on an unchanged cache must not encode, Put or rewrite anything.
func TestCheckpointSkipsUnchangedCache(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{RemoteOnly: true, CacheShards: 8, StateDir: dir, SnapshotEvery: 2 * time.Millisecond, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	store := tapSnapshotStore(s)

	// The first delta is written off the ack path, by the loop.
	completeWith(t, s, mockEntries("PLPro", 1, 11))
	waitFor(t, "the asynchronous checkpoint", func() bool { return s.met.snapshots.Value() == 1 })
	manifest, mf := readManifest(t, dir)
	if len(mf.Chunks) != 1 || store.puts.Load() != 1 {
		t.Fatalf("first checkpoint: %d chunks, %d puts", len(mf.Chunks), store.puts.Load())
	}

	completeWith(t, s, nil)
	completeWith(t, s, mockEntries("PLPro", 1, 11))
	time.Sleep(40 * time.Millisecond) // a good dozen ticker fires
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if n := store.puts.Load(); n != 1 {
		t.Fatalf("unchanged cache cost %d more blob puts", n-1)
	}
	if again, _ := readManifest(t, dir); !bytes.Equal(again, manifest) {
		t.Fatalf("manifest rewritten on an unchanged cache:\n%s\nvs\n%s", again, manifest)
	}
	if n := s.met.snapshots.Value(); n != 1 {
		t.Fatalf("impeccable_snapshots_total = %v, want 1", n)
	}
}

// TestDeltaCheckpointsRollUpAndReopen writes enough delta checkpoints
// to force one rollup, crashes, and requires the reopened cache to
// equal the pre-crash one entry for entry — and an unchanged reopen to
// write nothing at Shutdown. It leaves its state dir (several chunks
// over one rollup) for the CI job's offline audit.
func TestDeltaCheckpointsRollUpAndReopen(t *testing.T) {
	dir := stateDirForTest(t)
	s1 := openCheckpointService(t, dir)
	const checkpoints = maxSnapshotChunks + 3
	for i := uint64(0); i < checkpoints; i++ {
		completeWith(t, s1, mockEntries("PLPro", 10*i, 10*i+5))
		if err := s1.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if n := s1.met.snapshots.Value(); n != checkpoints {
		t.Fatalf("impeccable_snapshots_total = %v, want %d", n, checkpoints)
	}
	// 16 deltas, then the 17th checkpoint rolled up, then two deltas.
	if _, mf := readManifest(t, dir); len(mf.Chunks) != checkpoints-maxSnapshotChunks {
		t.Fatalf("manifest names %d chunks, want %d", len(mf.Chunks), checkpoints-maxSnapshotChunks)
	}
	pre := sortedExport(s1.scores)
	if len(pre) != 5*checkpoints {
		t.Fatalf("cache holds %d entries, want %d", len(pre), 5*checkpoints)
	}
	crash(s1)

	s2 := openCheckpointService(t, dir)
	if post := sortedExport(s2.scores); !reflect.DeepEqual(post, pre) {
		t.Fatalf("reopened cache diverged: %d entries vs %d", len(post), len(pre))
	}
	store := tapSnapshotStore(s2)
	manifest, _ := readManifest(t, dir)
	s2.Shutdown()
	if again, _ := readManifest(t, dir); store.puts.Load() != 0 || !bytes.Equal(again, manifest) {
		t.Fatalf("reopen + Shutdown on an unchanged cache wrote: %d puts, manifest\n%s\nvs\n%s", store.puts.Load(), again, manifest)
	}
	if report, err := VerifyStateDir(dir); err != nil || !report.Ok() {
		t.Fatalf("verifier rejects the state dir: %v %+v", err, report)
	}
}

// TestCheckpointPutFailureRemarks: a checkpoint whose chunk write fails
// puts its entries back, and the next checkpoint carries them.
func TestCheckpointPutFailureRemarks(t *testing.T) {
	dir := t.TempDir()
	s1 := openCheckpointService(t, dir)
	store := tapSnapshotStore(s1)
	store.fail.Store(1)
	s1.scores.Import(mockEntries("PLPro", 1, 8))
	if err := s1.Snapshot(); err == nil {
		t.Fatal("checkpoint over a failing store reported success")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); !os.IsNotExist(err) {
		t.Fatalf("failed checkpoint left a manifest (stat err %v)", err)
	}
	if n := s1.met.snapshots.Value(); n != 0 {
		t.Fatalf("failed checkpoint counted as %v writes", n)
	}
	if err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	pre := sortedExport(s1.scores)
	crash(s1)
	s2 := openCheckpointService(t, dir)
	defer s2.Shutdown()
	if post := sortedExport(s2.scores); len(post) != 7 || !reflect.DeepEqual(post, pre) {
		t.Fatalf("retried checkpoint restored %d entries, want 7", len(post))
	}
}

// TestCompactionPinsSnapshotChunks: after several checkpoints and a
// rollup, the sweep leaves exactly the live manifest's chunks plus the
// journal's artifacts; a chunk with a flipped byte is reported by the
// offline verifier and costs a reopen only that chunk's entries.
func TestCompactionPinsSnapshotChunks(t *testing.T) {
	dir := t.TempDir()
	opts := tinyJournalOpts(dir)
	opts.RemoteOnly, opts.SnapshotEvery = true, time.Hour
	s1, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const checkpoints = maxSnapshotChunks + 2
	for i := uint64(0); i < checkpoints; i++ {
		completeWith(t, s1, mockEntries("PLPro", 10*i, 10*i+5))
		if err := s1.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	agBlobs(t, dir)
	if err := s1.CompactNow(); err != nil {
		t.Fatal(err)
	}
	_, mf := readManifest(t, dir)
	if len(mf.Chunks) != 2 {
		t.Fatalf("manifest names %d chunks, want a rollup and one delta", len(mf.Chunks))
	}
	var want []string
	for _, ref := range mf.Chunks {
		want = append(want, ref.SHA256)
	}
	for h := range s1.jl.liveBlobRefs() {
		want = append(want, h)
	}
	sort.Strings(want)
	if got := blobHashes(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("blobs after the sweep:\n%v\nwant the manifest's chunks plus the journal's refs:\n%v", got, want)
	}
	s1.Shutdown()
	if report, err := VerifyStateDir(dir); err != nil || !report.Ok() {
		t.Fatalf("verifier rejects the state dir: %v %+v", err, report)
	}

	// Corrupt the delta chunk (5 entries on top of the rollup's 85).
	last := mf.Chunks[1].SHA256
	flipByte(t, filepath.Join(dir, blobDirName, last[:2], last[2:4], last), 20)
	report, err := VerifyStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Problems) != 1 || !strings.Contains(report.Problems[0], last[:12]) {
		t.Fatalf("verifier on a corrupt chunk %s: %v", last[:12], report.Problems)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("open over a corrupt chunk: %v", err)
	}
	if n := s2.scores.Len(); n != 5*(checkpoints-1) {
		t.Fatalf("reopened cache holds %d entries, want everything but the corrupt chunk's 5 (%d)", n, 5*(checkpoints-1))
	}
	// The next checkpoint rolls the readable entries up into a clean manifest.
	s2.Shutdown()
	if report, err := VerifyStateDir(dir); err != nil || !report.Ok() {
		t.Fatalf("verifier after the healing checkpoint: %v %+v", err, report)
	}
}

// TestOlderSnapshotFormatsRollForward: a state dir whose caches.snap is
// the single-blob manifest (payload carrying feature vectors) or the
// raw pre-manifest gob opens warm on scores, and its first checkpoint
// rewrites it in the current format.
func TestOlderSnapshotFormatsRollForward(t *testing.T) {
	type olderSnapshot struct {
		Scores   []ScoreEntry
		Features []FeatureEntry
	}
	var payload bytes.Buffer
	err := gob.NewEncoder(&payload).Encode(olderSnapshot{
		Scores:   mockEntries("PLPro", 1, 13),
		Features: []FeatureEntry{{ID: 1, Vec: []float64{1, 2, 3}}, {ID: 2, Vec: []float64{4, 5, 6}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, install := range map[string]func(t *testing.T, dir string){
		"single-blob manifest": func(t *testing.T, dir string) {
			store, err := blob.Open(filepath.Join(dir, blobDirName))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := store.Put(payload.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			mf, _ := json.Marshal(map[string]any{"blob": ref, "saved_at": time.Now()})
			if err := os.WriteFile(filepath.Join(dir, snapshotName), mf, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"raw gob": func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, snapshotName), payload.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			install(t, dir)
			s1 := openCheckpointService(t, dir)
			if n := s1.scores.Len(); n != 12 {
				t.Fatalf("opened with %d score entries, want 12", n)
			}
			if err := s1.Snapshot(); err != nil {
				t.Fatal(err)
			}
			raw, mf := readManifest(t, dir)
			if len(mf.Chunks) != 1 || mf.Blob != nil || s1.met.snapshots.Value() != 1 {
				t.Fatalf("first checkpoint did not roll the dir forward: %s", raw)
			}
			crash(s1)
			s2 := openCheckpointService(t, dir)
			store := tapSnapshotStore(s2)
			if n := s2.scores.Len(); n != 12 {
				t.Fatalf("rolled-forward dir reopened with %d entries, want 12", n)
			}
			s2.Shutdown()
			if store.puts.Load() != 0 {
				t.Fatal("rolled-forward dir was rewritten again on an unchanged cache")
			}
		})
	}
}

// TestCrashBeforeCheckpoint kills the service after a job's ack but
// before its labels were checkpointed: the restart is cold for exactly
// that tail, which costs the rerun its docking and nothing else.
func TestCrashBeforeCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full (small) campaigns")
	}
	dir := stateDirForTest(t)
	opts := Options{Workers: 1, CacheShards: 8, StateDir: dir, CompactEvery: -1}
	s1, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tapSnapshotStore(s1).fail.Store(1 << 30) // no checkpoint ever lands
	run := func(s *Service) ResultSummary {
		id, err := s.Submit(smallReq())
		if err != nil {
			t.Fatal(err)
		}
		if snap, err := s.Wait(id, 5*time.Minute); err != nil || snap.State != StateDone {
			t.Fatalf("job %s = %+v, %v", id, snap, err)
		}
		sum, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	sumA := run(s1)
	if sumA.Funnel.DockEvals == 0 {
		t.Fatal("cold run spent no dock evals")
	}
	crash(s1)

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	if n := s2.scores.Len(); n != 0 {
		t.Fatalf("reopened with %d score entries, want the un-checkpointed tail lost", n)
	}
	sumB := run(s2)
	if !reflect.DeepEqual(science(sumB.Funnel.Counts()), science(sumA.Funnel.Counts())) || !reflect.DeepEqual(sumB.Top, sumA.Top) {
		t.Fatalf("rerun after the lost checkpoint changed the science:\n%+v\nvs\n%+v", sumB, sumA)
	}
	if sumB.Funnel.DockEvals > sumA.Funnel.DockEvals {
		t.Fatalf("rerun spent %d dock evals, more than the lost job's own %d", sumB.Funnel.DockEvals, sumA.Funnel.DockEvals)
	}
}
