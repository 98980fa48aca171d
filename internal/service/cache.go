// Package service turns the one-shot campaign engine into a long-lived,
// concurrent, multi-tenant evaluation service: a bounded-worker job
// queue and scheduler for submitted campaigns, a sharded memoizing score
// cache that dedupes repeated docking work across tenants, and an HTTP
// JSON API (submit / status / result / cache stats / health) built on
// net/http only. The shape follows standing solver-evaluation services
// (cf. the ICCMA competition infrastructure): many submitted jobs, one
// shared solver substrate, aggressive reuse of identical evaluations.
package service

import (
	"reflect"
	"sync"
	"sync/atomic"

	"impeccable/internal/chem"
	"impeccable/internal/dock"
)

// scoreKey identifies one memoized docking evaluation: the receptor by
// name and the ligand by structural fingerprint. Structurally identical
// molecules (same fingerprint) dock identically, so the fingerprint —
// not the library ID — is the unit of reuse across tenants.
type scoreKey struct {
	target string
	fp     chem.Fingerprint
}

// scoreShard is one lock-striped segment of the score cache. Hit,
// miss and eviction counters live on the shard so /metrics can expose
// per-shard series (skewed traffic shows up as one hot shard) and so
// counting never contends on a cache-global cell.
type scoreShard struct {
	mu sync.RWMutex
	m  map[scoreKey]dock.Result
	// dirty holds the keys stored since the last takeDirty — what the
	// next cache checkpoint has to write. Nil unless trackDirty was
	// called: a cache nobody checkpoints must not accumulate marks.
	dirty map[scoreKey]struct{}

	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
}

// ScoreCache is a sharded, concurrency-safe memoizing cache of docking
// results keyed by (target, molecule fingerprint). Shards are selected
// by fingerprint hash so concurrent campaigns stripe their traffic
// across independent locks instead of serializing on one map.
type ScoreCache struct {
	shards []scoreShard
	mask   uint64

	// maxPerShard bounds each shard's entry count; 0 means unbounded.
	// Eviction is random-replacement (delete an arbitrary entry), which
	// is cheap and adequate for a dedup cache.
	maxPerShard int

	puts atomic.Int64
}

// NewScoreCache builds a cache with the given shard count (rounded up to
// a power of two; values < 1 become 16) and a total soft capacity of
// maxEntries results (0 = unbounded).
func NewScoreCache(shards, maxEntries int) *ScoreCache {
	if shards < 1 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &ScoreCache{shards: make([]scoreShard, n), mask: uint64(n - 1)}
	if maxEntries > 0 {
		c.maxPerShard = (maxEntries + n - 1) / n
	}
	for i := range c.shards {
		c.shards[i].m = make(map[scoreKey]dock.Result)
	}
	return c
}

// shardFor hashes the key's fingerprint (already well mixed) with the
// target name into a shard index.
func (c *ScoreCache) shardFor(k scoreKey) *scoreShard {
	h := uint64(14695981039346656037)
	for _, ch := range []byte(k.target) {
		h = (h ^ uint64(ch)) * 1099511628211
	}
	for _, w := range k.fp {
		h ^= w
		h *= 1099511628211
	}
	return &c.shards[h&c.mask]
}

// get returns the cached result for (target, molecule), if present.
func (c *ScoreCache) get(target string, m *chem.Molecule) (dock.Result, bool) {
	k := scoreKey{target: target, fp: m.FP()}
	s := c.shardFor(k)
	s.mu.RLock()
	r, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
		// Callers may hold the genome slice; hand out a private copy so
		// no two tenants share backing memory.
		r.Genome = append([]float64(nil), r.Genome...)
		return r, true
	}
	s.misses.Add(1)
	return dock.Result{}, false
}

// put stores a result for (target, molecule), evicting an arbitrary
// entry when the shard is at capacity.
func (c *ScoreCache) put(target string, m *chem.Molecule, r dock.Result) {
	// Store a private copy of the genome: the caller may mutate its
	// slice after Put returns.
	r.Genome = append([]float64(nil), r.Genome...)
	c.store(scoreKey{target: target, fp: m.FP()}, r)
	c.puts.Add(1)
}

// store inserts one entry under the capacity bound and, once trackDirty
// is on, records its key for the next checkpoint; r's genome must
// already be private to the cache. Re-storing an identical result (a
// rerun, a second worker's delta for the same window) changes nothing
// and marks nothing.
func (c *ScoreCache) store(k scoreKey, r dock.Result) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, exists := s.m[k]; exists {
		if reflect.DeepEqual(old, r) {
			return
		}
	} else if c.maxPerShard > 0 && len(s.m) >= c.maxPerShard {
		for victim := range s.m {
			delete(s.m, victim)
			s.evicts.Add(1)
			break
		}
	}
	s.m[k] = r
	if s.dirty != nil {
		s.dirty[k] = struct{}{}
	}
}

// trackDirty turns on dirty-key tracking. Call before concurrent use,
// and after loading a checkpoint: what it restored is already on disk.
func (c *ScoreCache) trackDirty() {
	for i := range c.shards {
		c.shards[i].dirty = make(map[scoreKey]struct{})
	}
}

// takeDirty drains the dirty set, returning the current value of every
// key stored since the last call (evicted keys have nothing to write).
func (c *ScoreCache) takeDirty() []ScoreEntry {
	var out []ScoreEntry
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.dirty {
			if r, ok := s.m[k]; ok {
				out = append(out, exportEntry(k, r))
			}
		}
		clear(s.dirty)
		s.mu.Unlock()
	}
	return out
}

// markDirty puts entries back in the dirty set: the checkpoint that
// took them failed, so the next one must carry them.
func (c *ScoreCache) markDirty(entries []ScoreEntry) {
	for _, e := range entries {
		k := scoreKey{target: e.Target, fp: e.FP}
		s := c.shardFor(k)
		s.mu.Lock()
		if s.dirty != nil {
			s.dirty[k] = struct{}{}
		}
		s.mu.Unlock()
	}
}

// exportEntry copies one cached result out of its shard.
func exportEntry(k scoreKey, r dock.Result) ScoreEntry {
	r.Genome = append([]float64(nil), r.Genome...)
	return ScoreEntry{Target: k.target, FP: k.fp, Result: r}
}

// ScoreEntry is one exported score-cache record: the (target,
// fingerprint) key plus the memoized docking result. The serializable
// unit of the cache snapshot.
type ScoreEntry struct {
	Target string
	FP     chem.Fingerprint
	Result dock.Result
}

// Export snapshots every cached docking result. Shards are walked one
// at a time under their read locks, so concurrent campaigns keep
// hitting the cache while a checkpoint is taken; the snapshot is
// per-shard-consistent, which is all a memoization cache needs.
func (c *ScoreCache) Export() []ScoreEntry {
	out := make([]ScoreEntry, 0, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, r := range s.m {
			out = append(out, exportEntry(k, r))
		}
		s.mu.RUnlock()
	}
	return out
}

// Import merges previously exported entries into the cache, respecting
// the capacity bound. Imported entries do not count as puts — the
// stats keep reflecting runtime traffic only.
func (c *ScoreCache) Import(entries []ScoreEntry) {
	for _, e := range entries {
		r := e.Result
		r.Genome = append([]float64(nil), r.Genome...)
		c.store(scoreKey{target: e.Target, fp: e.FP}, r)
	}
}

// Len returns the total number of cached results across all shards.
func (c *ScoreCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Shards    int     `json:"shards"`
	Entries   int     `json:"entries"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Puts      int64   `json:"puts"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"` // hits / (hits+misses); 0 when no lookups
}

// ShardStats is one shard's point-in-time counters, exposed per shard
// on /metrics so load imbalance across the stripes is visible.
type ShardStats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// ShardStats snapshots every shard's counters, in shard order.
func (c *ScoreCache) ShardStats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		out[i].Entries = len(s.m)
		s.mu.RUnlock()
		out[i].Hits = s.hits.Load()
		out[i].Misses = s.misses.Load()
		out[i].Evictions = s.evicts.Load()
	}
	return out
}

// Stats snapshots the cache counters, summed across shards.
func (c *ScoreCache) Stats() CacheStats {
	st := CacheStats{
		Shards: len(c.shards),
		Puts:   c.puts.Load(),
	}
	for _, ss := range c.ShardStats() {
		st.Entries += ss.Entries
		st.Hits += ss.Hits
		st.Misses += ss.Misses
		st.Evictions += ss.Evictions
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(lookups)
	}
	return st
}

// ForTarget returns a view of the cache scoped to one receptor,
// satisfying dock.ScoreCache so it can be attached to a dock.Engine or a
// campaign.Config.
func (c *ScoreCache) ForTarget(name string) dock.ScoreCache {
	return &targetCache{c: c, target: name}
}

// targetCache adapts the shared cache to dock.ScoreCache for one target.
type targetCache struct {
	c      *ScoreCache
	target string
}

func (t *targetCache) Get(m *chem.Molecule) (dock.Result, bool) { return t.c.get(t.target, m) }
func (t *targetCache) Put(m *chem.Molecule, r dock.Result)      { t.c.put(t.target, m, r) }
