package service

import (
	"sync"
	"sync/atomic"

	"impeccable/internal/chem"
)

// FeatureCache memoizes molecule feature vectors by library ID for the
// ML1 screening hot path. Molecule materialization is deterministic, so
// vectors computed for one tenant's screen are valid for every other
// tenant screening an overlapping library window. Sharded like the score
// cache; satisfies surrogate.FeatureSource.
type FeatureCache struct {
	shards []featShard
	mask   uint64

	maxPerShard int
}

// featShard counters mirror scoreShard's: per-shard so the exposition
// can show stripe balance and counting stays contention-free.
type featShard struct {
	mu sync.RWMutex
	m  map[uint64][]float64

	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64
}

// NewFeatureCache builds a feature cache with the given shard count
// (rounded up to a power of two; values < 1 become 16) and a total soft
// capacity of maxEntries vectors (0 = unbounded).
func NewFeatureCache(shards, maxEntries int) *FeatureCache {
	if shards < 1 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &FeatureCache{shards: make([]featShard, n), mask: uint64(n - 1)}
	if maxEntries > 0 {
		c.maxPerShard = (maxEntries + n - 1) / n
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64][]float64)
	}
	return c
}

// shardForID mixes the ID so sequential library windows spread across
// shards.
func (c *FeatureCache) shardForID(id uint64) *featShard {
	h := id * 0x9E3779B97F4A7C15
	return &c.shards[h&c.mask]
}

// Features returns the feature vector for the molecule ID, computing and
// caching it on first use. The returned slice is shared and must be
// treated as read-only (the surrogate copies it into its input matrix).
func (c *FeatureCache) Features(id uint64) []float64 {
	if v, ok := c.lookup(id); ok {
		return v
	}
	v := chem.FromID(id).FeatureVector()
	c.store(id, v)
	return v
}

// FeaturesInto writes the feature vector for the molecule ID into dst
// (length chem.FeatureDim), computing and caching it on a miss — the
// surrogate.BatchFeatureSource counterpart of Features, letting batched
// inference fill kernel input buffers without holding a reference to the
// shared cached slice. Counter semantics match Features exactly: one
// hit or one miss per call, every miss stores (Puts == Misses).
func (c *FeatureCache) FeaturesInto(dst []float64, id uint64) {
	if v, ok := c.lookup(id); ok {
		copy(dst, v)
		return
	}
	chem.FromID(id).FeatureVectorInto(dst)
	c.store(id, append([]float64(nil), dst...))
}

// lookup returns the cached vector for the molecule ID, counting one
// hit or one miss.
func (c *FeatureCache) lookup(id uint64) ([]float64, bool) {
	s := c.shardForID(id)
	s.mu.RLock()
	v, ok := s.m[id]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// store inserts one vector under the capacity bound.
func (c *FeatureCache) store(id uint64, v []float64) {
	s := c.shardForID(id)
	s.mu.Lock()
	if _, exists := s.m[id]; !exists && c.maxPerShard > 0 && len(s.m) >= c.maxPerShard {
		for victim := range s.m {
			delete(s.m, victim)
			s.evicts.Add(1)
			break
		}
	}
	s.m[id] = v
	s.mu.Unlock()
}

// FeatureEntry is one feature-cache record as older workers shipped it
// with a completion. Vectors are recomputable from the ID
// (materialization is deterministic) for less than decoding one costs,
// so nothing ships, merges or persists them any more; the type remains
// so such a completion still decodes (see WorkerResult.Features).
type FeatureEntry struct {
	ID  uint64
	Vec []float64
}

// ShardStats snapshots every shard's counters, in shard order.
func (c *FeatureCache) ShardStats() []ShardStats {
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

// Stats snapshots the feature-cache counters, summed across shards.
func (c *FeatureCache) Stats() CacheStats {
	st := CacheStats{Shards: len(c.shards)}
	for _, ss := range c.ShardStats() {
		st.Entries += ss.Entries
		st.Hits += ss.Hits
		st.Misses += ss.Misses
		st.Evictions += ss.Evictions
	}
	st.Puts = st.Misses // every miss computes and stores
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(lookups)
	}
	return st
}
