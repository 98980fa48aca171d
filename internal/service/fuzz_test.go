package service

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"impeccable/internal/blob"
	"impeccable/internal/chem"
	"impeccable/internal/dock"
)

// fuzzResultFor derives the canonical docking result for a molecule from
// its fingerprint. The cache is keyed by (target, fingerprint), so two
// molecules with colliding fingerprints MUST map to the same value —
// deriving the value from the fingerprint itself makes every interleaving
// of Puts produce a value any Get is allowed to observe.
func fuzzResultFor(m *chem.Molecule) dock.Result {
	fp := m.FP()
	return dock.Result{
		MolID:  m.ID,
		Score:  -float64(fp[0]%1000) / 10,
		Evals:  int64(fp[0] % 97),
		Genome: []float64{float64(fp[0] % 7)},
	}
}

// decodeIDs turns fuzz bytes into a molecule-ID op sequence.
func decodeIDs(data []byte) []uint64 {
	ids := make([]uint64, 0, len(data)/3+1)
	for at := 0; at < len(data); at += 3 {
		end := at + 3
		if end > len(data) {
			end = len(data)
		}
		var buf [8]byte
		copy(buf[:], data[at:end])
		// A tiny ID universe forces key reuse (Get-after-Put hits) and,
		// because fingerprints hash a small structure space, occasional
		// fingerprint collisions between distinct IDs.
		ids = append(ids, binary.LittleEndian.Uint64(buf[:])%512)
	}
	return ids
}

// scoreCacheBound is the cache's worst-case entry capacity for a
// maxEntries request (per-shard ceilings round up).
func scoreCacheBound(shards, maxEntries int) int {
	n := 1
	for n < shards {
		n <<= 1
	}
	if n < 1 {
		n = 16
	}
	return n * ((maxEntries + n - 1) / n)
}

// FuzzScoreCache drives the sharded score cache with an arbitrary op
// sequence split across two goroutines and checks the invariants that
// must hold under every interleaving: a Get hit always returns the
// canonical value for that fingerprint (Get-after-Put round-trips,
// collisions included), the entry count respects the capacity bound, and
// the hit/miss/put counters stay coherent.
func FuzzScoreCache(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1), uint8(8))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00}, uint8(64), uint8(3))
	f.Add([]byte("get-after-put-get-after-put"), uint8(2), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, shardByte, capByte uint8) {
		shards := int(shardByte)%32 + 1
		maxEntries := int(capByte) // 0 = unbounded
		c := NewScoreCache(shards, maxEntries)
		ids := decodeIDs(data)

		run := func(ids []uint64) {
			for i, id := range ids {
				m := chem.FromID(id)
				want := fuzzResultFor(m)
				if i%2 == 0 {
					c.put("PLPro", m, want)
				}
				if got, ok := c.get("PLPro", m); ok {
					if got.Score != want.Score || got.Evals != want.Evals {
						t.Errorf("get(%d) = (%v,%d), want (%v,%d)",
							id, got.Score, got.Evals, want.Score, want.Evals)
					}
					// The handed-out genome must be a private copy.
					if len(got.Genome) > 0 {
						got.Genome[0] = -12345
					}
					if again, ok2 := c.get("PLPro", m); ok2 && len(again.Genome) > 0 && again.Genome[0] == -12345 {
						t.Error("cache handed out shared genome backing memory")
					}
				}
			}
		}
		// Arbitrary interleaving: both halves run concurrently over an
		// overlapping ID universe.
		var wg sync.WaitGroup
		half := len(ids) / 2
		for _, part := range [][]uint64{ids[:half], ids[half:]} {
			wg.Add(1)
			go func(p []uint64) {
				defer wg.Done()
				run(p)
			}(part)
		}
		wg.Wait()

		st := c.Stats()
		if maxEntries > 0 {
			if bound := scoreCacheBound(shards, maxEntries); st.Entries > bound {
				t.Errorf("entries %d exceed capacity bound %d (shards=%d max=%d)",
					st.Entries, bound, shards, maxEntries)
			}
		}
		if st.Hits+st.Misses < int64(len(ids)) && len(ids) > 0 {
			t.Errorf("counter loss: %d lookups recorded for %d ops", st.Hits+st.Misses, len(ids))
		}
		if st.Entries > 0 && st.Puts == 0 {
			t.Error("entries present with zero puts")
		}
	})
}

// memStore is a blob.Store over a map, so a fuzz execution costs no
// fsync. Only Put and Get are ever called on it.
type memStore map[string][]byte

func (m memStore) Put(data []byte) (blob.Ref, error) {
	ref := blob.Ref{SHA256: blob.SumHex(data), Size: int64(len(data))}
	m[ref.SHA256] = data
	return ref, nil
}

func (m memStore) Get(ref blob.Ref) ([]byte, error) {
	data, ok := m[ref.SHA256]
	if !ok || int64(len(data)) != ref.Size {
		return nil, os.ErrNotExist
	}
	return data, nil
}

func (m memStore) Has(hash string) bool { _, ok := m[hash]; return ok }
func (m memStore) Delete(string) error  { return nil }
func (m memStore) Stats() blob.Stats    { return blob.Stats{} }
func (m memStore) Sweep(func(string) bool) (int, int64, error) {
	return 0, 0, nil
}

// FuzzLoadSnapshot feeds loadSnapshot bytes this process did not write:
// an arbitrary caches.snap, and an arbitrary chunk payload behind a
// well-formed manifest of either generation (or raw at the manifest
// path, the oldest format). Whatever the bytes, the load must not
// panic, must not return an error (which would fail Open — a bad
// checkpoint is a cold start), and must not import an entry that has
// no target.
func FuzzLoadSnapshot(f *testing.F) {
	chunk := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := []ScoreEntry{{Target: "PLPro", FP: chem.FromID(1).FP(), Result: dock.Result{MolID: 1, Score: -1, Genome: []float64{1}}}}
	f.Add([]byte(`{"chunks":[],"saved_at":"2024-01-01T00:00:00Z"}`), []byte{}, uint8(0))
	f.Add([]byte(`{"chunks":[{"sha256":"zz","size":-1}],"blob":{"sha256":"","size":0}}`), []byte("not gob"), uint8(0))
	f.Add([]byte(`null`), chunk(cacheSnapshot{Scores: good}), uint8(1))
	f.Add([]byte(`[1,2`), chunk(cacheSnapshot{Scores: append([]ScoreEntry{{Target: ""}}, good...)}), uint8(1))
	f.Add([]byte{}, chunk(struct {
		Scores   []ScoreEntry
		Features []FeatureEntry
	}{good, []FeatureEntry{{ID: 1, Vec: []float64{1, 2}}}}), uint8(2))
	f.Add([]byte{}, chunk(cacheSnapshot{Scores: good}), uint8(3))
	f.Fuzz(func(t *testing.T, manifest, payload []byte, mode uint8) {
		dir := t.TempDir()
		store := memStore{}
		ref, _ := store.Put(payload)
		switch mode % 4 {
		case 1:
			manifest, _ = json.Marshal(snapshotManifest{Chunks: []blob.Ref{ref, ref}})
		case 2:
			manifest, _ = json.Marshal(snapshotManifest{Blob: &ref})
		case 3:
			manifest = payload
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		scores := NewScoreCache(4, 0)
		if _, _, err := loadSnapshot(dir, store, scores); err != nil {
			t.Fatalf("loadSnapshot failed the open: %v", err)
		}
		for _, e := range scores.Export() {
			if e.Target == "" {
				t.Fatalf("imported an entry without a target: %+v", e)
			}
		}
	})
}
