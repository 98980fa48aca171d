package service

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"impeccable/internal/merkle"
)

// tinyJournalOpts forces the full persistence machinery on small
// campaigns: segments rotate every KiB, every payload spills to the
// blob store, compaction only on demand.
func tinyJournalOpts(dir string) Options {
	return Options{
		Workers:      1,
		CacheShards:  8,
		StateDir:     dir,
		SegmentBytes: 1 << 10,
		InlineLimit:  1,
		CompactEvery: -1,
	}
}

// listingDigest projects a snapshot down to what a restart must
// preserve bit-for-bit. Times compare by Equal (JSON round-trips strip
// the monotonic clock).
type listingDigest struct {
	id, target, state, err string
	submitted              string
	started, finished      string
	progress               float64
}

func digestListing(snaps []JobSnapshot) []listingDigest {
	ts := func(t *time.Time) string {
		if t == nil {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	var out []listingDigest
	for _, s := range snaps {
		out = append(out, listingDigest{
			id: s.ID, target: s.Target, state: string(s.State), err: s.Error,
			submitted: s.Submitted.UTC().Format(time.RFC3339Nano),
			started:   ts(s.Started), finished: ts(s.Finished),
			progress: s.Progress,
		})
	}
	return out
}

// TestSegmentedRestartRecovery is the tentpole acceptance test: with
// tiny SegmentBytes/InlineLimit forcing several rotations and spills,
// plus one compaction honoring the MaxJobRecords prune horizon, a
// kill-and-reopen serves listings and summaries identical to the
// pre-crash service, and the whole state dir verifies offline.
func TestSegmentedRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full (small) campaigns")
	}
	dir := stateDirForTest(t)
	opts := tinyJournalOpts(dir)
	opts.MaxJobRecords = 3
	s1, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 5
	var ids []string
	for i := 0; i < jobs; i++ {
		id, err := s1.Submit(smallReq())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Wait(id, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if n := s1.jl.segmentCount(); n < 4 {
		t.Fatalf("only %d segments after %d campaigns; rotation never triggered", n, jobs)
	}
	if err := s1.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if n := s1.jl.segmentCount(); n > 2 {
		t.Fatalf("%d segments after compaction, want at most 2", n)
	}

	pre := digestListing(s1.Jobs())
	if len(pre) != opts.MaxJobRecords {
		t.Fatalf("pre-crash listing has %d records, want MaxJobRecords=%d", len(pre), opts.MaxJobRecords)
	}
	preSums := map[string]ResultSummary{}
	for _, d := range pre {
		sum, err := s1.Result(d.id)
		if err != nil {
			t.Fatal(err)
		}
		preSums[d.id] = sum
	}
	if err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(s1)

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	post := digestListing(s2.Jobs())
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("listing diverged across restart:\npre:  %+v\npost: %+v", pre, post)
	}
	for id, want := range preSums {
		got, err := s2.Result(id)
		if err != nil {
			t.Fatalf("result %s after restart: %v", id, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("summary %s diverged across restart:\n%+v\nvs\n%+v", id, got, want)
		}
	}
	// Pruned history is gone from the journal too: a new submission
	// continues the ID sequence past everything ever journaled.
	id, err := s2.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if want := "job-000006"; id != want {
		t.Fatalf("post-restart ID = %s, want %s", id, want)
	}
	if _, err := s2.Wait(id, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if sum, err := s2.Result(id); err != nil || sum.Funnel.DockEvals != 0 {
		t.Fatalf("resubmit against the restored checkpoint: %d dock evals, %v", sum.Funnel.DockEvals, err)
	}

	report, err := VerifyStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() {
		t.Fatalf("verifier rejects the state dir: %v", report.Problems)
	}
	if report.Checkpoints == 0 || report.Blobs == 0 {
		t.Fatalf("verifier saw no compaction/spill activity: %+v", report)
	}
}

// TestProvenanceProofAndTamper covers the provenance surface end to
// end: the API serves a sealed chain whose inclusion proof verifies
// against the Merkle root, the HTTP route exposes it, the offline
// verifier passes on the intact state dir, and a single flipped bit —
// in a spilled artifact or in a journal field — fails verification.
func TestProvenanceProofAndTamper(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (small) campaign")
	}
	dir := stateDirForTest(t)
	s, err := Open(tinyJournalOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id, 5*time.Minute); err != nil {
		t.Fatal(err)
	}

	p, err := s.Provenance(id, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sealed || p.Root == "" || p.Events < 3 || p.Proof == nil {
		t.Fatalf("provenance = %+v, want a sealed chain with a proof", p)
	}
	verifyInclusion(t, p)
	// Every event index serves a verifying proof, not just the last.
	for i := 0; i < p.Events; i++ {
		pi, err := s.Provenance(id, i)
		if err != nil {
			t.Fatal(err)
		}
		verifyInclusion(t, pi)
	}
	if _, err := s.Provenance(id, p.Events); err == nil {
		t.Fatal("out-of-range event index served a proof")
	}
	if _, err := s.Provenance("job-999999", -1); err != ErrUnknownJob {
		t.Fatalf("unknown job error = %v, want ErrUnknownJob", err)
	}

	// The HTTP surface serves the same record.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var hp Provenance
	getJSON(t, srv.URL+"/api/v1/campaigns/"+id+"/provenance", http.StatusOK, &hp)
	if hp.Root != p.Root || !hp.Sealed || hp.Proof == nil {
		t.Fatalf("HTTP provenance = %+v, want root %s", hp, p.Root)
	}
	var hp0 Provenance
	getJSON(t, srv.URL+"/api/v1/campaigns/"+id+"/provenance?event=0", http.StatusOK, &hp0)
	if hp0.Proof == nil || hp0.Proof.Index != 0 {
		t.Fatalf("event=0 proof = %+v", hp0.Proof)
	}
	getJSON(t, srv.URL+"/api/v1/campaigns/"+id+"/provenance?event=banana", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/api/v1/campaigns/job-999999/provenance", http.StatusNotFound, nil)
	srv.Close()
	crash(s)

	report, err := VerifyStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() || report.Sealed == 0 || report.Blobs == 0 {
		t.Fatalf("intact state dir fails verification: %+v", report)
	}

	// Flip one bit in one spilled artifact: verification must fail.
	blobPath := anyBlobObject(t, dir)
	flipByte(t, blobPath, 0)
	if r, err := VerifyStateDir(dir); err != nil || r.Ok() {
		t.Fatalf("bit-flipped blob passed verification (err=%v)", err)
	}
	flipByte(t, blobPath, 0) // restore

	// Tamper with a journal field (keep the line valid JSON): the chain
	// hash no longer re-derives.
	seg := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"time":"2`, `"time":"3`, 1)
	if tampered == string(raw) {
		t.Fatal("no timestamp found to tamper with")
	}
	if err := os.WriteFile(seg, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := VerifyStateDir(dir); err != nil || r.Ok() {
		t.Fatalf("tampered journal passed verification (err=%v)", err)
	}
}

// verifyInclusion folds a served proof back to the root with the
// merkle package — the same check an external auditor would run.
func verifyInclusion(t *testing.T, p Provenance) {
	t.Helper()
	root, err := hex.DecodeString(p.Root)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := hex.DecodeString(p.Proof.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]merkle.ProofStep, len(p.Proof.Steps))
	for i, s := range p.Proof.Steps {
		h, err := hex.DecodeString(s.Hash)
		if err != nil {
			t.Fatal(err)
		}
		steps[i] = merkle.ProofStep{Hash: h, Left: s.Left}
	}
	if !merkle.Verify(root, leaf, steps) {
		t.Fatalf("inclusion proof for event %d does not verify", p.Proof.Index)
	}
}

// getJSON asserts a GET's status and decodes its body when out != nil.
func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d (body %s)", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
}

// anyBlobObject returns the path of one stored blob object.
func anyBlobObject(t *testing.T, stateDir string) string {
	t.Helper()
	var found string
	root := filepath.Join(stateDir, blobDirName)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || found != "" {
			return err
		}
		if !strings.Contains(info.Name(), ".tmp") {
			found = path
		}
		return nil
	})
	if err != nil || found == "" {
		t.Fatalf("no blob objects under %s (err=%v)", root, err)
	}
	return found
}

// flipByte XORs one byte of a file in place.
func flipByte(t *testing.T, path string, offset int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offset] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
