// Merkle provenance over the journal: every event hashes its
// predecessor and its own canonical JSON, a job's terminal event is
// followed by a sealed event committing to the Merkle root of the
// chain, and any event's inclusion is checkable from the root plus a
// logarithmic sibling path. The trust model is tamper-evidence, like
// an unsigned git history: the chain does not prove who wrote the
// journal, it proves the history served today is byte-for-byte the
// history that produced the result — a bit flipped anywhere (an event
// field, a spilled artifact, a cache snapshot) fails verification.
package service

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"impeccable/internal/blob"
	"impeccable/internal/merkle"
)

// ProofStep is one sibling on the path from an event hash to the
// campaign's Merkle root. Left reports the sibling's side: true means
// it is the left child (hash order: sibling then current).
type ProofStep struct {
	Hash string `json:"hash"`
	Left bool   `json:"left"`
}

// InclusionProof connects one event hash to the root.
type InclusionProof struct {
	Leaf  string      `json:"leaf"`
	Index int         `json:"index"`
	Steps []ProofStep `json:"steps"`
}

// Provenance is what GET /api/v1/campaigns/{id}/provenance serves: the
// job's event-hash chain, the Merkle root sealed at terminal time, and
// an inclusion proof for one event (the last, unless ?event= picks
// another).
type Provenance struct {
	Job    string   `json:"job"`
	Sealed bool     `json:"sealed"`
	Root   string   `json:"root,omitempty"`
	Events int      `json:"events"`
	Leaves []string `json:"leaves"`
	// Proof is present once the chain is sealed: fold the steps over
	// the leaf (left ? H(0x01||sib||cur) : H(0x01||cur||sib)) and the
	// result must equal Root.
	Proof *InclusionProof `json:"proof,omitempty"`
}

// ErrNoProvenance distinguishes "job exists but predates provenance or
// has no journal" from unknown jobs.
var ErrNoProvenance = fmt.Errorf("service: no provenance recorded")

// provenance builds the job's provenance record with a proof for the
// event at index (negative = the last event).
func (jl *journal) provenance(jobID string, index int) (Provenance, error) {
	jl.mu.Lock()
	c := jl.prov[jobID]
	if c == nil {
		jl.mu.Unlock()
		return Provenance{}, ErrNoProvenance
	}
	c = c.clone()
	jl.mu.Unlock()
	p := Provenance{
		Job:    jobID,
		Sealed: c.sealed,
		Root:   c.root,
		Events: len(c.leaves),
		Leaves: c.leaves,
	}
	if !c.sealed || len(c.leaves) == 0 {
		return p, nil
	}
	if index < 0 {
		index = len(c.leaves) - 1
	}
	if index >= len(c.leaves) {
		return Provenance{}, fmt.Errorf("service: event index %d out of range (job has %d)", index, len(c.leaves))
	}
	leaves, err := decodeLeaves(c.leaves)
	if err != nil {
		return Provenance{}, err
	}
	steps := merkle.Proof(leaves, index)
	proof := &InclusionProof{Leaf: c.leaves[index], Index: index, Steps: []ProofStep{}}
	for _, s := range steps {
		proof.Steps = append(proof.Steps, ProofStep{Hash: hex.EncodeToString(s.Hash), Left: s.Left})
	}
	p.Proof = proof
	return p, nil
}

// Provenance returns a job's provenance record with an inclusion
// proof for the event at index (negative = last). ErrUnknownJob for
// IDs the service does not know; ErrNoProvenance when the service
// runs without persistence or the job predates provenance chains.
func (s *Service) Provenance(jobID string, index int) (Provenance, error) {
	if _, ok := s.sched.get(jobID); !ok {
		return Provenance{}, ErrUnknownJob
	}
	if s.jl == nil {
		return Provenance{}, ErrNoProvenance
	}
	return s.jl.provenance(jobID, index)
}

// VerifyReport is what VerifyStateDir found.
type VerifyReport struct {
	Events      int      `json:"events"`
	Jobs        int      `json:"jobs"`
	Sealed      int      `json:"sealed"`      // jobs with a verified Merkle root
	Checkpoints int      `json:"checkpoints"` // compacted jobs verified via checkpoint
	Legacy      int      `json:"legacy"`      // pre-provenance events (no chain to check)
	Blobs       int      `json:"blobs"`       // distinct artifacts resolved and hash-verified
	Problems    []string `json:"problems,omitempty"`
}

// Ok reports whether every check passed.
func (r *VerifyReport) Ok() bool { return len(r.Problems) == 0 }

// verifyChain is the offline mirror of provChain, rebuilt while
// re-deriving every hash.
type verifyChain struct {
	leaves []string
	last   string
	sealed bool
}

// VerifyStateDir replays a state dir offline and checks everything the
// provenance machinery promises: every event's chain hash re-derives
// from its predecessor and canonical JSON, every sealed root and
// checkpoint root equals the Merkle root of its leaves, a sampled
// inclusion proof per sealed job verifies, every blob ref resolves to
// bytes matching its hash, and every chunk the cache-snapshot manifest
// names is a readable blob. Used by cmd/impeccable-verify and the crash
// tests.
func VerifyStateDir(dir string) (*VerifyReport, error) {
	events, err := readJournal(dir)
	if err != nil {
		return nil, err
	}
	store, err := blob.Open(filepath.Join(dir, blobDirName))
	if err != nil {
		return nil, err
	}
	r := &VerifyReport{Events: len(events)}
	badf := func(format string, args ...any) {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
	chains := make(map[string]*verifyChain)
	checkedBlobs := make(map[string]bool)
	checkRef := func(job string, ref *blob.Ref) {
		if ref == nil {
			return
		}
		if checkedBlobs[ref.SHA256] {
			return
		}
		if _, err := store.Get(*ref); err != nil {
			badf("job %s: artifact %s: %v", job, ref.SHA256[:12], err)
			return
		}
		checkedBlobs[ref.SHA256] = true
	}
	checkRoot := func(job, root string, leafHexes []string) bool {
		leaves, err := decodeLeaves(leafHexes)
		if err != nil {
			badf("job %s: %v", job, err)
			return false
		}
		want := hex.EncodeToString(merkle.Root(leaves))
		if root != want {
			badf("job %s: merkle root %s does not cover its %d event hashes (want %s)",
				job, short(root), len(leaves), short(want))
			return false
		}
		// Spot-check the proof path for the newest event too, so a bug
		// in proof generation cannot hide behind a correct root.
		if len(leaves) > 0 {
			i := len(leaves) - 1
			rootB, _ := hex.DecodeString(root)
			if !merkle.Verify(rootB, leaves[i], merkle.Proof(leaves, i)) {
				badf("job %s: inclusion proof for event %d does not verify", job, i)
				return false
			}
		}
		return true
	}
	for _, ev := range events {
		checkRef(ev.Job, ev.ReqRef)
		checkRef(ev.Job, ev.SummaryRef)
		if ev.Kind == evCheckpoint {
			want, err := eventHash("", ev)
			if err != nil {
				badf("job %s: %v", ev.Job, err)
				continue
			}
			if ev.Hash != want {
				badf("job %s: checkpoint hash %s does not match its content (want %s)",
					ev.Job, short(ev.Hash), short(want))
				continue
			}
			if checkRoot(ev.Job, ev.Root, ev.Leaves) {
				r.Checkpoints++
			}
			chains[ev.Job] = &verifyChain{
				leaves: append([]string(nil), ev.Leaves...),
				last:   ev.Hash,
				sealed: true,
			}
			continue
		}
		if ev.Hash == "" {
			r.Legacy++
			continue
		}
		c := chains[ev.Job]
		if c == nil {
			c = &verifyChain{}
			chains[ev.Job] = c
		}
		if ev.Kind == evSealed {
			if c.sealed && c.last == ev.Hash {
				continue // crash-window duplicate
			}
			want, err := eventHash(c.last, ev)
			if err != nil {
				badf("job %s: %v", ev.Job, err)
				continue
			}
			if ev.Hash != want {
				badf("job %s: sealed-event hash %s breaks the chain (want %s)",
					ev.Job, short(ev.Hash), short(want))
				continue
			}
			if checkRoot(ev.Job, ev.Root, c.leaves) {
				r.Sealed++
			}
			c.last = ev.Hash
			c.sealed = true
			continue
		}
		dup := false
		for _, l := range c.leaves {
			if l == ev.Hash {
				dup = true // crash-window duplicate: already verified
				break
			}
		}
		if dup {
			continue
		}
		want, err := eventHash(c.last, ev)
		if err != nil {
			badf("job %s: %v", ev.Job, err)
			continue
		}
		if ev.Hash != want {
			badf("job %s: %s-event hash %s breaks the chain (want %s)",
				ev.Job, ev.Kind, short(ev.Hash), short(want))
			continue
		}
		c.leaves = append(c.leaves, ev.Hash)
		c.last = ev.Hash
	}
	r.Jobs = len(chains)
	r.Blobs = len(checkedBlobs)
	// The cache snapshot rides the same store: every chunk its manifest
	// names must be a readable, hash-clean blob.
	if raw, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		var mf snapshotManifest
		if json.Unmarshal(raw, &mf) == nil {
			for _, ref := range mf.chunks() {
				if _, err := store.Get(ref); err != nil {
					badf("cache snapshot chunk: %v", err)
				}
			}
		}
	}
	sort.Strings(r.Problems)
	return r, nil
}

// short abbreviates a hex hash for error messages.
func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	if h == "" {
		return "(empty)"
	}
	return h
}
