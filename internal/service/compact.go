// Journal compaction: sealed segments whose jobs have all finished
// collapse into a checkpoint segment — one synthetic terminal event
// per retained job — so cold-start replay scales with live+retained
// jobs instead of lifetime history. The state machine is
// crash-safe at every step:
//
//  1. Read the sealed segments (immutable once rotated past).
//  2. Split their jobs: closed jobs (terminal event present in the
//     sealed prefix — terminal jobs never receive another event)
//     collapse to checkpoints; everything else's raw events are copied
//     verbatim, preserving the live provenance chains.
//  3. Closed jobs the scheduler has pruned (Options.MaxJobRecords) are
//     dropped entirely, so a restart lists exactly what the running
//     service listed.
//  4. Write checkpoints + copied events to a temp file, fsync, and
//     rename it over the highest sealed segment. A crash before the
//     rename changes nothing (the temp is swept on open); a crash
//     after it leaves raw segments alongside the checkpoint that
//     restates them, which replay reduces to the same state (events
//     are absolute and chains dedupe by hash).
//  5. Delete the lower sealed segments, then sweep blobs that neither a
//     journal event nor the cache-snapshot manifest (any of its
//     chunks) references.
//
// Checkpoints spill their summary to the blob store (a terminal
// artifact, read lazily if ever) unless it is tiny, and keep the
// request as the submitted event had it — replay reads every request at
// open, so a blob per job would cost two fsyncs here and a file read
// there. A compaction running beside live traffic competes with it for
// the disk's fsyncs, so it writes only what shortens replay. They carry
// the original chain's leaves and Merkle root so inclusion proofs
// survive the raw events' deletion.
package service

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"impeccable/internal/blob"
	"impeccable/internal/merkle"
)

// compactStats reports what one compaction did.
type compactStats struct {
	segments     int // sealed segments rewritten (0 = nothing to do)
	checkpointed int // closed jobs collapsed to checkpoint events
	dropped      int // pruned jobs removed from the journal entirely
	copied       int // raw events of still-open jobs carried over
}

// compactInterrupt, when set, runs after the checkpoint segment is
// installed and before the old segments are deleted; returning true
// abandons the deletion — the test seam for the crash-mid-compaction
// window.
var compactInterrupt func() bool

// compact rewrites every sealed segment into one checkpoint segment.
// retain reports whether a closed job should survive (nil retains
// all); jobs it rejects vanish from the journal, which is how
// compaction honors the scheduler's MaxJobRecords prune horizon.
func (jl *journal) compact(retain func(jobID string) bool) (compactStats, error) {
	jl.compactMu.Lock()
	defer jl.compactMu.Unlock()
	var st compactStats

	jl.mu.Lock()
	if len(jl.seqs) < 2 {
		jl.mu.Unlock()
		return st, nil // only the active segment: nothing sealed to compact
	}
	sealed := append([]uint64(nil), jl.seqs[:len(jl.seqs)-1]...)
	jl.mu.Unlock()
	hi := sealed[len(sealed)-1]

	events, err := readSegments(jl.dir, sealed)
	if err != nil {
		return st, err
	}

	// Split the prefix's jobs. A job is closed once a terminal, sealed
	// or checkpoint event for it appears: terminal jobs never receive
	// another event, so every event it will ever have is here.
	closed := make(map[string]bool)
	for _, ev := range events {
		if ev.Kind.terminal() || ev.Kind == evSealed || ev.Kind == evCheckpoint {
			closed[ev.Job] = true
		}
	}

	// Chains of closed jobs are immutable; copy them out under the lock.
	chains := make(map[string]*provChain, len(closed))
	jl.mu.Lock()
	for id := range closed {
		if c := jl.prov[id]; c != nil {
			chains[id] = c.clone()
		}
	}
	jl.mu.Unlock()

	// Fold each closed job's events into its checkpoint; collect the
	// open jobs' events for verbatim copy. refDelta tracks how the blob
	// reference counts change: removed raw events give up their refs,
	// new checkpoints take theirs (identical payloads reuse identical
	// hashes, so a retained job's spilled artifacts net to zero).
	type record struct {
		ev    journalEvent
		order int
	}
	folds := make(map[string]*journalEvent)
	var closedOrder []string
	var copied []record
	refDelta := make(map[string]int)
	for i, ev := range events {
		if !closed[ev.Job] {
			copied = append(copied, record{ev: ev, order: i})
			continue
		}
		if ev.ReqRef != nil {
			refDelta[ev.ReqRef.SHA256]--
		}
		if ev.SummaryRef != nil {
			refDelta[ev.SummaryRef.SHA256]--
		}
		ck := folds[ev.Job]
		if ck == nil {
			ck = &journalEvent{Kind: evCheckpoint, Job: ev.Job, State: StateQueued}
			folds[ev.Job] = ck
			closedOrder = append(closedOrder, ev.Job)
		}
		foldEvent(ck, ev)
	}

	drop := make(map[string]bool)
	for _, id := range closedOrder {
		if retain != nil && !retain(id) {
			drop[id] = true
			st.dropped++
		}
	}

	// Checkpoints land in job-number order so replay's listing order
	// matches submission order without extra sorting work at startup.
	sort.Slice(closedOrder, func(i, k int) bool {
		ni, iok := jobNumber(closedOrder[i])
		nk, kok := jobNumber(closedOrder[k])
		if iok && kok {
			return ni < nk
		}
		return closedOrder[i] < closedOrder[k]
	})

	var buf []byte
	for _, id := range closedOrder {
		if drop[id] {
			continue
		}
		ck := folds[id]
		if err := jl.spillCheckpoint(ck); err != nil {
			return st, err
		}
		if c := chains[id]; c != nil {
			ck.Leaves = append([]string(nil), c.leaves...)
		}
		leaves, err := decodeLeaves(ck.Leaves)
		if err != nil {
			return st, err
		}
		ck.Root = hex.EncodeToString(merkle.Root(leaves))
		if ck.Hash, err = eventHash("", *ck); err != nil {
			return st, err
		}
		if ck.ReqRef != nil {
			refDelta[ck.ReqRef.SHA256]++
		}
		if ck.SummaryRef != nil {
			refDelta[ck.SummaryRef.SHA256]++
		}
		b, err := json.Marshal(ck)
		if err != nil {
			return st, fmt.Errorf("service: encoding checkpoint event: %w", err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
		st.checkpointed++
	}
	for _, rec := range copied {
		b, err := json.Marshal(rec.ev)
		if err != nil {
			return st, fmt.Errorf("service: encoding copied event: %w", err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
		st.copied++
	}

	// Install the checkpoint segment atomically over the highest sealed
	// slot, then delete the lower segments.
	if err := installFile(jl.dir, segmentName(hi), buf); err != nil {
		return st, fmt.Errorf("service: installing checkpoint segment: %w", err)
	}
	if compactInterrupt != nil && compactInterrupt() {
		st.segments = len(sealed)
		return st, nil
	}
	for _, seq := range sealed[:len(sealed)-1] {
		if err := os.Remove(filepath.Join(jl.dir, segmentName(seq))); err != nil && !os.IsNotExist(err) {
			return st, fmt.Errorf("service: removing compacted segment: %w", err)
		}
	}
	syncDir(jl.dir)

	// Commit the new shape: segment list, provenance chains, ref counts.
	jl.mu.Lock()
	keep := jl.seqs[:0]
	for _, s := range jl.seqs {
		if s >= hi {
			keep = append(keep, s)
		}
	}
	jl.seqs = keep
	for _, id := range closedOrder {
		if drop[id] {
			delete(jl.prov, id)
			continue
		}
		ck := folds[id]
		jl.prov[id] = &provChain{
			leaves: append([]string(nil), ck.Leaves...),
			last:   ck.Hash,
			root:   ck.Root,
			sealed: true,
		}
	}
	for h, d := range refDelta {
		jl.refs[h] += d
		if jl.refs[h] <= 0 {
			delete(jl.refs, h)
		}
	}
	jl.mu.Unlock()
	st.segments = len(sealed)
	return st, nil
}

// foldEvent reduces one raw event into a job's checkpoint record —
// the same absolute-state semantics as replayJournal, but keeping
// payload refs unresolved.
func foldEvent(ck *journalEvent, ev journalEvent) {
	switch ev.Kind {
	case evSubmitted:
		t := ev.Time
		ck.Submitted = &t
		ck.Req, ck.ReqRef = ev.Req, ev.ReqRef
		ck.RID = ev.RID
		// Schema v2: the owner and priority survive compaction so a
		// restart rebuilds per-tenant records from checkpoints alone.
		ck.Tenant = ev.Tenant
		ck.Priority = ev.Priority
	case evStarted, evLeased:
		t := ev.Time
		ck.Started = &t
	case evRequeued:
		ck.Started = nil
	case evDone:
		ck.State = StateDone
		ck.Time = ev.Time
		ck.Summary, ck.SummaryRef = ev.Summary, ev.SummaryRef
	case evFailed:
		ck.State = StateFailed
		ck.Time = ev.Time
		ck.Error = ev.Error
	case evCanceled:
		ck.State = StateCanceled
		ck.Time = ev.Time
	case evCheckpoint:
		// A previous compaction's checkpoint: adopt it wholesale (its
		// leaves and root are re-derived by the caller from prov, which
		// this checkpoint populated at open).
		*ck = ev
	}
	if ev.Worker != "" && ev.Kind != evRequeued {
		ck.Worker = ev.Worker
	}
}

// checkpointInlineSummary is the largest summary (JSON bytes) a
// checkpoint keeps inline: below it a blob costs more (two fsyncs to
// write, a file read to serve, a ref of a hundred bytes in the line)
// than parsing the summary at replay does.
const checkpointInlineSummary = 1 << 10

// spillCheckpoint moves a checkpoint's inline summary to the blob
// store unless it is tiny: checkpoint segments stay lean (replay parses
// a few hundred bytes per job) and the summary resolves lazily on first
// access. The request stays inline or spilled as its submitted event
// left it.
func (jl *journal) spillCheckpoint(ck *journalEvent) error {
	if jl.blobs == nil || ck.Summary == nil {
		return nil
	}
	b, err := json.Marshal(ck.Summary)
	if err != nil {
		return fmt.Errorf("service: encoding checkpoint summary: %w", err)
	}
	if len(b) <= checkpointInlineSummary {
		return nil
	}
	ref, err := jl.blobs.Put(b)
	if err != nil {
		return fmt.Errorf("service: spilling checkpoint summary: %w", err)
	}
	ck.Summary, ck.SummaryRef = nil, &ref
	return nil
}

// CompactNow compacts the journal's sealed segments and sweeps
// unreferenced blobs. Jobs the scheduler no longer lists (pruned past
// MaxJobRecords) leave the journal; jobs still open keep their raw
// events and chains. Safe to call any time; a no-op without a
// StateDir or when nothing is sealed.
func (s *Service) CompactNow() error {
	if s.stateDir == "" {
		return nil
	}
	retained := s.sched.retainedIDs()
	start := time.Now()
	st, err := s.jl.compact(func(id string) bool {
		_, ok := retained[id]
		return ok
	})
	if err != nil {
		return err
	}
	if st.segments > 0 {
		s.met.journalCompactions.Inc()
		s.met.journalCompactionSeconds.Observe(time.Since(start).Seconds())
	}
	// Sweep even when nothing compacted: a rollup orphans the snapshot
	// chunks it replaces, whether or not anything was sealed since.
	_, _, err = s.blobs.Sweep(func(hash string) bool {
		return s.jl.hasRef(hash) || s.snapPinned(hash)
	})
	return err
}

// snapPinned reports whether hash is a chunk of the live cache snapshot.
func (s *Service) snapPinned(hash string) bool {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return slices.ContainsFunc(s.snapChunks, func(r blob.Ref) bool { return r.SHA256 == hash })
}

// compactLoop periodically compacts and sweeps, so a long-lived
// service's replay cost tracks its live+retained jobs.
func (s *Service) compactLoop(every time.Duration) {
	defer s.snapWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.CompactNow()
		case <-s.snapStop:
			return
		}
	}
}

// liveBlobRefs enumerates every blob hash the journal currently pins
// (for tests and the verifier).
func (jl *journal) liveBlobRefs() map[string]blob.Ref {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	out := make(map[string]blob.Ref, len(jl.refs))
	for h := range jl.refs {
		out[h] = blob.Ref{SHA256: h}
	}
	return out
}
