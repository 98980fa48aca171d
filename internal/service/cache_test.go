package service

import (
	"fmt"
	"sync"
	"testing"

	"impeccable/internal/chem"
	"impeccable/internal/dock"
)

func TestScoreCacheHitMissAccounting(t *testing.T) {
	c := NewScoreCache(8, 0)
	view := c.ForTarget("T1")
	m1, m2 := chem.FromID(1), chem.FromID(2)

	if _, ok := view.Get(m1); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	view.Put(m1, dock.Result{MolID: 1, Score: -7.5, Genome: []float64{1, 2}})
	r, ok := view.Get(m1)
	if !ok || r.Score != -7.5 {
		t.Fatalf("expected hit with score -7.5, got %+v ok=%v", r, ok)
	}
	if _, ok := view.Get(m2); ok {
		t.Fatal("unexpected hit for unseen molecule")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want hits=1 misses=2 puts=1 entries=1", st)
	}
	if want := 1.0 / 3.0; st.HitRate < want-1e-9 || st.HitRate > want+1e-9 {
		t.Fatalf("hit rate = %v, want 1/3", st.HitRate)
	}
}

func TestScoreCacheTargetIsolation(t *testing.T) {
	c := NewScoreCache(4, 0)
	m := chem.FromID(99)
	c.ForTarget("A").Put(m, dock.Result{Score: -1})
	if _, ok := c.ForTarget("B").Get(m); ok {
		t.Fatal("target B saw target A's entry")
	}
	if r, ok := c.ForTarget("A").Get(m); !ok || r.Score != -1 {
		t.Fatal("target A lost its entry")
	}
}

func TestScoreCacheGenomeIsolation(t *testing.T) {
	c := NewScoreCache(2, 0)
	view := c.ForTarget("T")
	m := chem.FromID(7)
	g := []float64{1, 2, 3}
	view.Put(m, dock.Result{Genome: g})
	g[0] = 99 // caller mutates its slice after Put
	r1, _ := view.Get(m)
	if r1.Genome[0] != 1 {
		t.Fatalf("cache shared the caller's genome backing array: %v", r1.Genome)
	}
	r1.Genome[1] = 42 // tenant mutates its returned copy
	r2, _ := view.Get(m)
	if r2.Genome[1] != 2 {
		t.Fatalf("two tenants shared one genome slice: %v", r2.Genome)
	}
}

func TestScoreCacheEvictionBound(t *testing.T) {
	const maxEntries = 32
	c := NewScoreCache(4, maxEntries)
	view := c.ForTarget("T")
	for id := uint64(0); id < 500; id++ {
		view.Put(chem.FromID(id), dock.Result{MolID: id})
	}
	// Per-shard bound is ceil(32/4)=8, so the total can never exceed 32.
	if n := c.Len(); n > maxEntries {
		t.Fatalf("cache grew to %d entries, bound is %d", n, maxEntries)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("expected evictions after 500 puts into a 32-entry cache")
	}
}

// TestScoreCacheConcurrent hammers Get/Put from many goroutines across
// overlapping key ranges; run under -race this checks shard locking, and
// the final accounting checks no operation was lost.
func TestScoreCacheConcurrent(t *testing.T) {
	c := NewScoreCache(16, 0)
	const (
		goroutines = 16
		idsPerG    = 200
	)
	mols := make([]*chem.Molecule, idsPerG)
	for i := range mols {
		mols[i] = chem.FromID(uint64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			view := c.ForTarget(fmt.Sprintf("T%d", g%4)) // 4 targets shared by 16 goroutines
			for i, m := range mols {
				if _, ok := view.Get(m); !ok {
					view.Put(m, dock.Result{MolID: m.ID, Score: float64(-i)})
				}
			}
			// Second pass must hit everything this target holds.
			for _, m := range mols {
				if _, ok := view.Get(m); !ok {
					t.Errorf("target T%d lost molecule %d", g%4, m.ID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != 4*idsPerG {
		t.Fatalf("entries = %d, want %d", st.Entries, 4*idsPerG)
	}
	// Every lookup is either a hit or a miss; the second pass alone is
	// goroutines*idsPerG guaranteed hits.
	if total := st.Hits + st.Misses; total != int64(2*goroutines*idsPerG) {
		t.Fatalf("hits+misses = %d, want %d", total, 2*goroutines*idsPerG)
	}
	if st.Hits < int64(goroutines*idsPerG) {
		t.Fatalf("hits = %d, want at least %d", st.Hits, goroutines*idsPerG)
	}
}

// molForTest and mockResult build deterministic cache fixtures shared
// with the snapshot tests.
func molForTest(id uint64) *chem.Molecule { return chem.FromID(id) }

func mockResult(id uint64) dock.Result {
	return dock.Result{
		MolID:  id,
		Score:  -float64(id),
		Genome: []float64{float64(id), 1, 2},
		Evals:  100,
		Method: "solis-wets",
	}
}

func TestScoreCacheExportImport(t *testing.T) {
	c := NewScoreCache(4, 0)
	for _, target := range []string{"PLPro", "3CLPro"} {
		view := c.ForTarget(target)
		for id := uint64(1); id <= 10; id++ {
			view.Put(molForTest(id), mockResult(id))
		}
	}
	entries := c.Export()
	if len(entries) != 20 {
		t.Fatalf("exported %d entries, want 20", len(entries))
	}
	c2 := NewScoreCache(16, 0)
	c2.Import(entries)
	if c2.Len() != 20 {
		t.Fatalf("imported cache holds %d entries, want 20", c2.Len())
	}
	for _, target := range []string{"PLPro", "3CLPro"} {
		view := c2.ForTarget(target)
		for id := uint64(1); id <= 10; id++ {
			r, ok := view.Get(molForTest(id))
			if !ok || r.Score != -float64(id) || r.Genome[0] != float64(id) {
				t.Fatalf("%s/%d restored as %+v ok=%v", target, id, r, ok)
			}
		}
	}
	// Import must not inflate runtime accounting.
	if st := c2.Stats(); st.Puts != 0 {
		t.Fatalf("import counted as %d puts", st.Puts)
	}
	// Mutating an exported genome must not reach the source cache.
	entries[0].Result.Genome[0] = 999
	r, _ := c.ForTarget(entries[0].Target).Get(molForTest(entries[0].Result.MolID))
	if r.Genome[0] == 999 {
		t.Fatal("export shares genome backing memory with the cache")
	}
}

func TestScoreCacheImportRespectsCapacity(t *testing.T) {
	const maxEntries = 16
	big := NewScoreCache(4, 0)
	view := big.ForTarget("T")
	for id := uint64(0); id < 200; id++ {
		view.Put(molForTest(id), mockResult(id))
	}
	small := NewScoreCache(4, maxEntries)
	small.Import(big.Export())
	if n := small.Len(); n > maxEntries {
		t.Fatalf("bounded cache grew to %d entries on import, bound %d", n, maxEntries)
	}
}

// TestScoreCacheDirtyConcurrent drains the dirty set while several
// goroutines store: every stored entry must come out of exactly the
// drains plus the final one — none lost to the race between a store's
// mark and a drain's clear — and a failed checkpoint's markDirty must
// bring its entries back.
func TestScoreCacheDirtyConcurrent(t *testing.T) {
	c := NewScoreCache(8, 0)
	c.trackDirty()
	const writers, perWriter = 4, 200
	seen := make(map[uint64]bool)
	take := func() {
		for _, e := range c.takeDirty() {
			seen[e.Result.MolID] = true
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := c.ForTarget("PLPro")
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i)
				view.Put(molForTest(id), mockResult(id))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for draining := true; draining; {
		select {
		case <-done:
			draining = false
		default:
		}
		take()
	}
	// Fingerprint collisions fold distinct IDs into one entry; what the
	// drains saw must cover what the cache holds, entry for entry.
	for _, e := range c.Export() {
		if !seen[e.Result.MolID] {
			t.Fatalf("entry for molecule %d was stored but never drained", e.Result.MolID)
		}
	}
	if d := c.takeDirty(); len(d) != 0 {
		t.Fatalf("%d entries still dirty after the final drain", len(d))
	}
	c.markDirty(c.Export()[:10])
	if d := c.takeDirty(); len(d) != 10 {
		t.Fatalf("markDirty brought back %d entries, want 10", len(d))
	}
}
