// Crash-safe persistence for the campaign service: a segmented
// write-ahead journal of job lifecycle events, a content-addressed
// blob store for large payloads, and delta-chunk checkpoints of the
// sharded score cache. The journal is the source of truth for job
// state across restarts (in the event-sourced style of replayable
// execution records); the cache snapshot is a pure optimization that
// keeps a restarted service's docking warm. Everything lives under
// Options.StateDir:
//
//	<state-dir>/journal-<seq>.jsonl  append-only JSON lines, fsynced
//	                                 per batch; rotated at SegmentBytes,
//	                                 sealed segments compact away
//	<state-dir>/blobs/               content-addressed artifacts (spilled
//	                                 requests, result ledgers, snapshot
//	                                 chunks)
//	<state-dir>/caches.snap          JSON manifest naming the chunks of
//	                                 the current cache checkpoint
//
// Three mechanisms keep replay and disk usage scaling with live work
// instead of lifetime history:
//
//   - Spill: an event payload (SubmitRequest library spec, ResultSummary
//     ledger) whose JSON exceeds Options.InlineLimit moves to the blob
//     store and the journal line carries only its {sha256, size} ref.
//     Every ref is hash-verified on read, so a bit-flipped artifact is
//     an error, never silent data.
//   - Segments: the journal rotates at Options.SegmentBytes. Sealed
//     segments are immutable, which is what makes compaction a simple
//     rewrite (see compact.go).
//   - Provenance: every event carries a chain hash over its predecessor
//     and its own canonical JSON; when a job reaches a terminal state
//     the journal auto-appends a "sealed" event carrying the Merkle
//     root over the job's event hashes. The inclusion proof for any
//     event is served live (GET .../provenance) and the whole state
//     dir is checkable offline (cmd/impeccable-verify).
//
// Replay semantics (see Open): a job whose last journaled event is
// terminal is restored as a served-from-journal record (summary, error
// and timestamps intact, full in-memory result gone); a job that was
// queued or held by an in-process worker when the process died is
// re-enqueued under its original ID with its SubmitRequest — Seed and
// LibOffset ride along, so the rerun is deterministic and, against a
// restored cache snapshot, warm-cache-identical.
package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"impeccable/internal/blob"
	"impeccable/internal/merkle"
)

// State-dir file names. legacyJournalName is the pre-segmentation
// journal; openJournal migrates it to segment 1 by rename, so old state
// dirs keep their history.
const (
	legacyJournalName = "journal.jsonl"
	segmentPrefix     = "journal-"
	segmentSuffix     = ".jsonl"
	snapshotName      = "caches.snap"
	blobDirName       = "blobs"
)

// Persistence tuning defaults (see Options).
const (
	defaultSegmentBytes = 4 << 20  // rotate segments at 4 MiB
	defaultInlineLimit  = 32 << 10 // spill payloads above 32 KiB
	defaultCompactEvery = time.Minute
)

// eventKind tags one journal line.
type eventKind string

const (
	evSubmitted eventKind = "submitted"
	evStarted   eventKind = "started"  // replay-only: in-process runs of older builds
	evLeased    eventKind = "leased"   // handed to a worker under a TTL lease
	evRequeued  eventKind = "requeued" // lease expired; job back in the queue
	evDone      eventKind = "done"
	evFailed    eventKind = "failed"
	evCanceled  eventKind = "canceled"
	// evSealed closes a job's provenance chain: appended automatically
	// after the terminal event, carrying the Merkle root over the job's
	// event hashes. No effect on replayed state.
	evSealed eventKind = "sealed"
	// evCheckpoint is one compacted job: the whole terminal record in a
	// single synthetic event, with the original chain's leaves and root
	// so inclusion proofs survive compaction.
	evCheckpoint eventKind = "checkpoint"
)

// terminal reports whether the event ends a job's lifecycle.
func (k eventKind) terminal() bool {
	return k == evDone || k == evFailed || k == evCanceled
}

// journalEvent is one line of the write-ahead journal.
type journalEvent struct {
	Kind eventKind `json:"kind"`
	Job  string    `json:"job"`
	Time time.Time `json:"time"`
	// Req rides on submitted events; it is everything needed to rerun
	// the job deterministically (Seed, LibOffset included). Above
	// InlineLimit it is spilled and ReqRef names the blob instead.
	Req    *SubmitRequest `json:"req,omitempty"`
	ReqRef *blob.Ref      `json:"req_ref,omitempty"`
	// Summary rides on done events; a replayed service serves it
	// without rerunning the campaign. Above InlineLimit it is spilled
	// and SummaryRef names the blob instead.
	Summary    *ResultSummary `json:"summary,omitempty"`
	SummaryRef *blob.Ref      `json:"summary_ref,omitempty"`
	// Error rides on failed events.
	Error string `json:"error,omitempty"`
	// Worker rides on leased events (the lease holder) and on terminal
	// events posted by a remote worker.
	Worker string `json:"worker,omitempty"`
	// Token rides on leased events: the per-lease secret the holder
	// presents on heartbeat/complete. Journaled so a surviving worker
	// can re-attach to its lease across a coordinator restart.
	Token string `json:"token,omitempty"`
	// RID is the X-Request-Id of the HTTP request that caused the event
	// (submits and cancels), linking the durable record back to access
	// logs and client traces.
	RID string `json:"rid,omitempty"`
	// Tenant and Priority ride on submitted and checkpoint events
	// (schema v2): the normalized owner and priority class, so fair-
	// share state and per-tenant records replay across restarts. Both
	// are omitempty — legacy (v1) events carry neither, their hash
	// chains re-derive unchanged, and replay folds them into the
	// default tenant.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`

	// Hash is the event's provenance chain hash: SHA-256 over the
	// previous event's hash and this event's canonical JSON (with Hash
	// itself cleared). The first event of a chain hashes against "".
	Hash string `json:"hash,omitempty"`
	// Root rides on sealed and checkpoint events: the Merkle root over
	// the job's event-hash leaves.
	Root string `json:"root,omitempty"`

	// Checkpoint-only fields: the collapsed terminal record.
	State     JobState   `json:"state,omitempty"`
	Submitted *time.Time `json:"submitted_at,omitempty"`
	Started   *time.Time `json:"started_at,omitempty"`
	// Leaves are the original chain's event hashes, preserved so
	// inclusion proofs keep verifying after the raw events are gone.
	Leaves []string `json:"leaves,omitempty"`
}

// eventHash computes an event's chain hash: SHA-256 over the previous
// hash, a separator, and the event's canonical JSON with Hash cleared.
// encoding/json marshals struct fields in declaration order and map
// keys sorted, so the byte stream is deterministic and the verifier
// can re-derive it from a parsed line.
func eventHash(prev string, ev journalEvent) (string, error) {
	ev.Hash = ""
	b, err := json.Marshal(ev)
	if err != nil {
		return "", fmt.Errorf("service: hashing journal event: %w", err)
	}
	h := sha256.New()
	io.WriteString(h, prev)
	h.Write([]byte{'\n'})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// provChain is one job's provenance state: the hashes of its events in
// order (the Merkle leaves) and the chain head.
type provChain struct {
	leaves []string // event hashes in append order; excludes the sealed/checkpoint hash
	last   string   // chain head: hash of the job's latest event (sealed/checkpoint included)
	root   string   // Merkle root over leaves, set once sealed
	sealed bool
}

// clone deep-copies the chain so staged appends can mutate freely and
// commit only after the write is durable.
func (c *provChain) clone() *provChain {
	cp := *c
	cp.leaves = append([]string(nil), c.leaves...)
	return &cp
}

// hasLeaf reports whether h is already one of the chain's leaves —
// how replay tolerates the duplicate events a crash mid-compaction
// leaves behind (raw segments plus the checkpoint that replaces them).
func (c *provChain) hasLeaf(h string) bool {
	for _, l := range c.leaves {
		if l == h {
			return true
		}
	}
	return false
}

// journal is the segmented, per-batch-fsynced job event log.
type journal struct {
	mu           sync.Mutex
	dir          string
	blobs        blob.Store
	segmentBytes int64
	inlineLimit  int
	f            *os.File // active segment, opened for append
	seqs         []uint64 // existing segment numbers, ascending; last is active
	size         int64    // active segment's byte length
	prov         map[string]*provChain
	refs         map[string]int // blob hash → journaled reference count
	// onAppend, when set, observes each batch: event count, bytes
	// written, and the fsync's duration. It must be cheap and
	// non-blocking (called under jl.mu).
	onAppend func(events, bytes int, fsync time.Duration)
	// onRotate, when set, observes each segment rotation.
	onRotate func()
	// compactMu serializes compactions (see compact.go).
	compactMu sync.Mutex
}

// segmentName formats a segment file name; the fixed-width sequence
// keeps lexical and numeric order identical.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%010d%s", segmentPrefix, seq, segmentSuffix)
}

// parseSegmentSeq extracts the sequence number from a segment file
// name; ok is false for anything else.
func parseSegmentSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the existing segment sequence numbers, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: listing state dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })
	return seqs, nil
}

// sweepStateTemps removes *.tmp stragglers in the state dir's top
// level: cache-snapshot and checkpoint-segment temp files abandoned by
// a crash mid-write. (The blob store sweeps its own temps on Open.)
// Nothing can be mid-write when the journal opens, so age does not
// matter here. Older builds created snapshot temps named
// "caches.snap.tmp-*", so match ".tmp" anywhere, not just as a suffix.
func sweepStateTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.Contains(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// syncDir fsyncs a directory so a freshly created or renamed entry in
// it survives power loss, not just process death. Best-effort on
// filesystems that reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// openJournal opens the segmented journal in dir, returning the raw
// event stream so the caller replays it without a second read. It
// sweeps crash-leftover temp files, migrates a legacy single-file
// journal into segment 1, rebuilds the provenance chains and blob
// reference counts from the events, and opens the highest segment for
// appending.
func openJournal(dir string, blobs blob.Store, segmentBytes int64, inlineLimit int) (*journal, []journalEvent, error) {
	sweepStateTemps(dir)
	if segmentBytes <= 0 {
		segmentBytes = defaultSegmentBytes
	}
	if inlineLimit == 0 {
		inlineLimit = defaultInlineLimit
	}
	// Migrate a pre-segmentation journal by rename: its events become
	// segment 1 and compact away like any other sealed segment.
	legacy := filepath.Join(dir, legacyJournalName)
	if _, err := os.Stat(legacy); err == nil {
		if err := os.Rename(legacy, filepath.Join(dir, segmentName(1))); err != nil {
			return nil, nil, fmt.Errorf("service: migrating legacy journal: %w", err)
		}
		syncDir(dir)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(seqs) == 0 {
		seqs = []uint64{1}
	}
	events, err := readSegments(dir, seqs)
	if err != nil {
		return nil, nil, err
	}
	jl := &journal{
		dir:          dir,
		blobs:        blobs,
		segmentBytes: segmentBytes,
		inlineLimit:  inlineLimit,
		seqs:         seqs,
		prov:         make(map[string]*provChain),
		refs:         make(map[string]int),
	}
	for _, ev := range events {
		jl.absorb(ev)
	}
	active := filepath.Join(dir, segmentName(seqs[len(seqs)-1]))
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening journal segment: %w", err)
	}
	// Persist the directory entry too: an acked submit must survive
	// power loss even when it was the journal's first event.
	syncDir(dir)
	jl.f = f
	if st, err := f.Stat(); err == nil {
		jl.size = st.Size()
	}
	return jl, events, nil
}

// absorb folds one replayed event into the provenance chains and blob
// reference counts. Duplicate events (the crash-mid-compaction window
// leaves raw segments alongside the checkpoint that replaces them) are
// recognized by hash and counted once.
func (jl *journal) absorb(ev journalEvent) {
	// Every line on disk pins its refs, duplicates included: refs[h] is
	// the count of journal lines referencing h, which compaction's
	// line-for-line delta keeps exact. (A checkpoint restating raw
	// events still left behind by an interrupted compaction references
	// the same summary blob as the raw done event — two lines, count 2 —
	// and its spilled request blob may be referenced by no other line.)
	jl.addRefs(ev)
	if ev.Kind == evCheckpoint {
		// The checkpoint is the canonical chain now; whatever raw events
		// preceded it carried the same leaves.
		jl.prov[ev.Job] = &provChain{
			leaves: append([]string(nil), ev.Leaves...),
			last:   ev.Hash,
			root:   ev.Root,
			sealed: true,
		}
		return
	}
	if ev.Hash == "" {
		return // pre-provenance (migrated legacy) event: no chain
	}
	c := jl.prov[ev.Job]
	if c == nil {
		c = &provChain{}
		jl.prov[ev.Job] = c
	}
	if ev.Kind == evSealed {
		if !c.sealed || c.last != ev.Hash { // duplicate-tolerant
			c.root = ev.Root
			c.sealed = true
			c.last = ev.Hash
		}
		return
	}
	if c.hasLeaf(ev.Hash) {
		return // duplicate from a crash-interrupted compaction
	}
	c.leaves = append(c.leaves, ev.Hash)
	c.last = ev.Hash
}

// addRefs counts an event's blob references for GC pinning.
func (jl *journal) addRefs(ev journalEvent) {
	if ev.ReqRef != nil {
		jl.refs[ev.ReqRef.SHA256]++
	}
	if ev.SummaryRef != nil {
		jl.refs[ev.SummaryRef.SHA256]++
	}
}

// hasRef reports whether any journaled event references the blob —
// the mark phase of blob GC.
func (jl *journal) hasRef(hash string) bool {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.refs[hash] > 0
}

// segmentCount reports how many segment files exist (for the metrics
// exposition).
func (jl *journal) segmentCount() int {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return len(jl.seqs)
}

// sizeBytes reports the active segment's length.
func (jl *journal) sizeBytes() int64 {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.size
}

// append writes the events as JSON lines under a single fsync, so an
// event that has been acknowledged (e.g. a submit that returned an ID)
// survives an immediate crash. The lease-expiry watchdog journals every
// requeue of a sweep in one call — after a restart re-arms many dead
// workers' leases with the same TTL, they all lapse on one tick, and
// per-event fsyncs there would stall the scheduler mutex for the whole
// run of writes.
//
// Each event is spilled (payloads above InlineLimit move to the blob
// store), chained (Hash set from the job's previous event), and — when
// terminal — followed by an auto-appended sealed event carrying the
// Merkle root over the job's event hashes. Chain state and blob
// reference counts commit only after the fsync succeeds, so a failed
// append leaves the in-memory provenance matching the disk.
func (jl *journal) append(events ...journalEvent) error {
	if len(events) == 0 {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return fmt.Errorf("service: journal is closed")
	}
	var buf []byte
	count := 0
	staged := make(map[string]*provChain)
	var stagedRefs []journalEvent
	chainOf := func(job string) *provChain {
		if c := staged[job]; c != nil {
			return c
		}
		c := &provChain{}
		if cur := jl.prov[job]; cur != nil {
			c = cur.clone()
		}
		staged[job] = c
		return c
	}
	appendLine := func(ev journalEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("service: encoding journal event: %w", err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
		count++
		stagedRefs = append(stagedRefs, ev)
		return nil
	}
	for _, ev := range events {
		if err := jl.spill(&ev); err != nil {
			return err
		}
		c := chainOf(ev.Job)
		h, err := eventHash(c.last, ev)
		if err != nil {
			return err
		}
		ev.Hash = h
		c.leaves = append(c.leaves, h)
		c.last = h
		if err := appendLine(ev); err != nil {
			return err
		}
		if ev.Kind.terminal() && !c.sealed {
			leaves, err := decodeLeaves(c.leaves)
			if err != nil {
				return err
			}
			seal := journalEvent{
				Kind: evSealed,
				Job:  ev.Job,
				Time: ev.Time,
				Root: hex.EncodeToString(merkle.Root(leaves)),
			}
			if seal.Hash, err = eventHash(c.last, seal); err != nil {
				return err
			}
			c.last = seal.Hash
			c.root = seal.Root
			c.sealed = true
			if err := appendLine(seal); err != nil {
				return err
			}
		}
	}
	// Rotate before writing so a batch never splits across segments —
	// compaction and provenance both rely on a job's terminal and
	// sealed events landing in the same segment.
	if jl.size > 0 && jl.size+int64(len(buf)) > jl.segmentBytes {
		if err := jl.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := jl.f.Write(buf); err != nil {
		return fmt.Errorf("service: appending journal event: %w", err)
	}
	start := time.Now()
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("service: syncing journal: %w", err)
	}
	jl.size += int64(len(buf))
	for job, c := range staged {
		jl.prov[job] = c
	}
	for _, ev := range stagedRefs {
		jl.addRefs(ev)
	}
	if jl.onAppend != nil {
		jl.onAppend(count, len(buf), time.Since(start))
	}
	return nil
}

// spill moves payloads above InlineLimit to the blob store, replacing
// them with refs. A negative InlineLimit disables spilling.
func (jl *journal) spill(ev *journalEvent) error {
	if jl.inlineLimit < 0 || jl.blobs == nil {
		return nil
	}
	if ev.Req != nil {
		b, err := json.Marshal(ev.Req)
		if err != nil {
			return fmt.Errorf("service: encoding submit request: %w", err)
		}
		if len(b) > jl.inlineLimit {
			ref, err := jl.blobs.Put(b)
			if err != nil {
				return fmt.Errorf("service: spilling submit request: %w", err)
			}
			ev.Req, ev.ReqRef = nil, &ref
		}
	}
	if ev.Summary != nil {
		b, err := json.Marshal(ev.Summary)
		if err != nil {
			return fmt.Errorf("service: encoding result summary: %w", err)
		}
		if len(b) > jl.inlineLimit {
			ref, err := jl.blobs.Put(b)
			if err != nil {
				return fmt.Errorf("service: spilling result summary: %w", err)
			}
			ev.Summary, ev.SummaryRef = nil, &ref
		}
	}
	return nil
}

// decodeLeaves converts hex chain hashes to Merkle leaves.
func decodeLeaves(hexes []string) ([][]byte, error) {
	leaves := make([][]byte, len(hexes))
	for i, s := range hexes {
		b, err := hex.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("service: malformed chain hash %q: %w", s, err)
		}
		leaves[i] = b
	}
	return leaves, nil
}

// rotateLocked seals the active segment and opens the next one.
// Callers hold jl.mu.
func (jl *journal) rotateLocked() error {
	next := jl.seqs[len(jl.seqs)-1] + 1
	f, err := os.OpenFile(filepath.Join(jl.dir, segmentName(next)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("service: rotating journal segment: %w", err)
	}
	syncDir(jl.dir)
	_ = jl.f.Close()
	jl.f = f
	jl.seqs = append(jl.seqs, next)
	jl.size = 0
	if jl.onRotate != nil {
		jl.onRotate()
	}
	return nil
}

// close closes the journal file; later appends fail.
func (jl *journal) close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}

// readSegments parses the given segments' events in order. A line that
// does not parse — a write torn by the crash the journal exists to
// survive — is skipped rather than failing the whole replay. A missing
// segment file is empty (the journal may never have been written).
func readSegments(dir string, seqs []uint64) ([]journalEvent, error) {
	var events []journalEvent
	for _, seq := range seqs {
		f, err := os.Open(filepath.Join(dir, segmentName(seq)))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("service: reading journal segment: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			var ev journalEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Job == "" {
				continue
			}
			events = append(events, ev)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("service: scanning journal segment: %w", err)
		}
	}
	return events, nil
}

// readJournal parses every event in the state dir's journal, in
// segment order — the offline entry point (verifier, tests).
func readJournal(dir string) ([]journalEvent, error) {
	seqs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return readSegments(dir, seqs)
}

// jobNumber extracts the numeric suffix of a "job-%06d" ID; ok is
// false for foreign IDs.
func jobNumber(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n, err == nil
}

// replayJournal reduces the event stream to restorable job records in
// submission order, plus the highest job number seen (so a reopened
// scheduler continues the ID sequence without collisions). Jobs left
// non-terminal by the stream come back StateQueued, ready to
// re-enqueue — except jobs whose last event is a remote worker's
// lease, which come back StateLeased with the holder preserved so the
// worker can re-attach across the restart. A lease held by an
// in-process holder (worker ID under localWorkerPrefix) died with the
// process and replays as queued, as do the started events older builds
// journaled for in-process runs.
//
// Spilled SubmitRequests are resolved eagerly through blobs (listings
// and reruns need Target and Seed); spilled summaries stay refs and
// resolve lazily on the first Result call — cold-start replay cost
// scales with event count, not artifact bytes. A checkpoint event
// restores the whole terminal record in one step.
func replayJournal(events []journalEvent, blobs blob.Store) (jobs []*job, maxID int) {
	byID := make(map[string]*job)
	note := func(j *job) {
		// Upsert: in the crash-mid-compaction window the raw events
		// replay first and the checkpoint re-states the same record.
		if old := byID[j.id]; old != nil {
			for i, e := range jobs {
				if e == old {
					jobs[i] = j
					break
				}
			}
		} else {
			jobs = append(jobs, j)
		}
		byID[j.id] = j
		if n, ok := jobNumber(j.id); ok && n > maxID {
			maxID = n
		}
	}
	// tenantOf resolves a replayed job's owner: the journaled tenant
	// field (schema v2), else the tenant inside the retained request,
	// else the default tenant (legacy v1 events carry neither).
	tenantOf := func(ev *journalEvent, req *SubmitRequest) string {
		if ev.Tenant != "" {
			return ev.Tenant
		}
		return normalizeTenant(req.Tenant)
	}
	resolveReq := func(ev *journalEvent) *SubmitRequest {
		if ev.Req != nil {
			return ev.Req
		}
		if ev.ReqRef == nil || blobs == nil {
			return nil
		}
		data, err := blobs.Get(*ev.ReqRef)
		if err != nil {
			return nil // unreadable artifact: the job is unrecoverable, skip it
		}
		var req SubmitRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return nil
		}
		return &req
	}
	for i := range events {
		ev := events[i]
		if ev.Kind == evCheckpoint {
			// Checkpoints collapse closed jobs only. One whose state is
			// missing or unknown (a damaged or foreign line) restores
			// nothing: queued under a state lease never grants, it would
			// be silently dropped from its tenant's queue.
			req := resolveReq(&ev)
			if req == nil || !ev.State.Terminal() {
				continue
			}
			j := &job{
				id:          ev.Job,
				tenant:      tenantOf(&ev, req),
				req:         *req,
				state:       ev.State,
				finished:    ev.Time,
				err:         ev.Error,
				leaseWorker: ev.Worker,
			}
			if ev.Submitted != nil {
				j.submitted = *ev.Submitted
			}
			if ev.Started != nil {
				j.started = *ev.Started
			}
			if ev.State == StateDone {
				j.progress = 1
				if ev.Summary != nil {
					j.result = &jobResult{summary: *ev.Summary}
				} else if ev.SummaryRef != nil {
					j.summaryRef = ev.SummaryRef
				}
			}
			note(j)
			continue
		}
		j := byID[ev.Job]
		if j == nil {
			if ev.Kind != evSubmitted {
				continue // event for a job whose submission was lost
			}
			req := resolveReq(&ev)
			if req == nil {
				continue
			}
			note(&job{
				id:        ev.Job,
				tenant:    tenantOf(&ev, req),
				req:       *req,
				state:     StateQueued,
				submitted: ev.Time,
			})
			continue
		}
		if ev.Worker != "" {
			j.leaseWorker = ev.Worker
		}
		switch ev.Kind {
		case evStarted:
			j.started = ev.Time
		case evLeased:
			j.started = ev.Time
			if strings.HasPrefix(ev.Worker, localWorkerPrefix) {
				// An in-process holder died with the process that wrote
				// this event: the job is simply queued again, no TTL wait.
				j.state = StateQueued
				j.leaseWorker = ""
				break
			}
			j.state = StateLeased
			j.leaseToken = ev.Token
		case evRequeued:
			j.state = StateQueued
			j.leaseWorker = ""
			j.leaseToken = ""
			j.started = time.Time{}
		case evDone:
			j.state = StateDone //impeccable:unjournaled replay applies states read from the journal itself
			j.finished = ev.Time
			j.progress = 1
			if ev.Summary != nil {
				j.result = &jobResult{summary: *ev.Summary}
			} else if ev.SummaryRef != nil {
				j.summaryRef = ev.SummaryRef
			}
		case evFailed:
			j.state = StateFailed //impeccable:unjournaled replay applies states read from the journal itself
			j.finished = ev.Time
			j.err = ev.Error
		case evCanceled:
			j.state = StateCanceled //impeccable:unjournaled replay applies states read from the journal itself
			j.finished = ev.Time
		}
	}
	// Interrupted jobs rerun from scratch: reset the stale start time so
	// their snapshots read as queued until a worker leases them. Leased
	// jobs keep theirs — the remote worker may still be running and
	// re-attach after the restart (restore re-arms the lease TTL).
	for _, j := range jobs {
		if !j.state.Terminal() && j.state != StateLeased {
			j.started = time.Time{}
		}
	}
	// Checkpoint events replay before the raw events of jobs that
	// outlived compaction, so encounter order is not submission order;
	// job numbers are.
	sort.Slice(jobs, func(i, k int) bool {
		ni, iok := jobNumber(jobs[i].id)
		nk, kok := jobNumber(jobs[k].id)
		if iok && kok {
			return ni < nk
		}
		return jobs[i].id < jobs[k].id
	})
	return jobs, maxID
}

// cacheSnapshot is the gob payload of one checkpoint chunk: score-cache
// entries sorted by key. Blobs written by older builds also carry a
// Features field, which gob skips on decode.
type cacheSnapshot struct {
	Scores []ScoreEntry
}

// snapshotManifest is what caches.snap holds: the refs of the chunks
// that together are the checkpoint, oldest first (a later chunk's entry
// overwrites an earlier one's). Each checkpoint appends one chunk
// holding only the entries stored since the previous one; past
// maxSnapshotChunks the whole cache is rolled up into a single base
// chunk. Blob is the earlier single-blob manifest, read as a
// one-element Chunks.
type snapshotManifest struct {
	Chunks  []blob.Ref `json:"chunks"`
	Blob    *blob.Ref  `json:"blob,omitempty"`
	SavedAt time.Time  `json:"saved_at"`
}

// chunks lists every blob the manifest names, whichever generation
// wrote it.
func (mf snapshotManifest) chunks() []blob.Ref {
	if mf.Blob != nil {
		return append(mf.Chunks, *mf.Blob)
	}
	return mf.Chunks
}

// maxSnapshotChunks bounds the manifest: the checkpoint that would add
// one chunk more writes the rollup instead.
const maxSnapshotChunks = 16

// saveSnapshot writes entries as one sorted gob chunk into the blob
// store and atomically installs a manifest naming prev plus that chunk,
// so a crash mid-checkpoint leaves the previous manifest intact.
// Returns the new chunk list.
func saveSnapshot(dir string, store blob.Store, entries []ScoreEntry, prev []blob.Ref) ([]blob.Ref, error) {
	sort.Slice(entries, func(i, k int) bool {
		a, b := &entries[i], &entries[k]
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		for w := range a.FP {
			if a.FP[w] != b.FP[w] {
				return a.FP[w] < b.FP[w]
			}
		}
		return false
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cacheSnapshot{Scores: entries}); err != nil {
		return nil, fmt.Errorf("service: encoding cache snapshot: %w", err)
	}
	ref, err := store.Put(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("service: storing cache snapshot: %w", err)
	}
	chunks := append(prev[:len(prev):len(prev)], ref)
	mf, err := json.Marshal(snapshotManifest{Chunks: chunks, SavedAt: time.Now()})
	if err != nil {
		return nil, fmt.Errorf("service: encoding snapshot manifest: %w", err)
	}
	if err := installFile(dir, snapshotName, mf); err != nil {
		return nil, fmt.Errorf("service: snapshot manifest: %w", err)
	}
	return chunks, nil
}

// installFile atomically replaces dir/name with data: temp file, fsync,
// rename, directory fsync. A crash leaves either the old file or the
// new one (the temp is swept on open).
func installFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+"-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	return nil
}

// loadSnapshot imports a previously saved checkpoint into the score
// cache, chunk by chunk in manifest order (call it before the cache
// tracks dirty keys). It returns the chunks the manifest names (the GC pins)
// and whether the next checkpoint must roll the cache up whatever the
// dirty set holds: the state dir is in an older format (single-blob
// manifest, or the raw gob at the manifest path), or a chunk did not
// load. A missing snapshot is a cold start, not an error; an unreadable
// manifest, chunk or legacy file is tolerated too (the cache refills
// from real work) — durable job state lives in the journal, never
// here. Entries without a target are dropped: nothing can read them.
func loadSnapshot(dir string, store blob.Store, scores *ScoreCache) (chunks []blob.Ref, rollup bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("service: opening cache snapshot: %w", err)
	}
	load := func(data []byte) bool {
		var snap cacheSnapshot
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&snap) != nil {
			return false
		}
		scores.Import(slices.DeleteFunc(snap.Scores, func(e ScoreEntry) bool { return e.Target == "" }))
		return true
	}
	var mf snapshotManifest
	if json.Unmarshal(raw, &mf) != nil {
		// Pre-manifest format: the snapshot itself at the fixed path. A
		// torn one starts cold.
		return nil, load(raw), nil
	}
	rollup = mf.Blob != nil
	for _, ref := range mf.chunks() {
		data, err := store.Get(ref)
		if err != nil || !load(data) {
			rollup = true // cold for this chunk only
		}
	}
	return mf.chunks(), rollup, nil
}
