// pool.go is the scratch arena behind the inference-only forward path:
// size-classed sync.Pool-backed float64 slabs handed out as Mat views,
// reclaimed in bulk with Reset. One arena belongs to one goroutine at a
// time (typically one per inference worker); the underlying pools are
// shared and safe for concurrent use, so arenas are cheap to get and
// release around short-lived work.
package nn

import (
	"math/bits"
	"sync"
)

// maxPooledClass caps which size classes recycle through the shared
// pools: 2^26 float64s = 512 MiB. Larger requests are served by plain
// allocations that die with the arena reset instead of pinning huge
// slabs in the pool forever.
const maxPooledClass = 26

// slabPools[c] holds *[]float64 slabs of capacity 1<<c.
var slabPools [maxPooledClass + 1]sync.Pool

// arenaPool recycles Arena shells themselves.
var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// Arena is a scratch allocator for inference workloads. Mats returned
// by Mat are valid until the next Reset or Release. The zero value is
// ready to use; an Arena must not be shared between goroutines.
type Arena struct {
	slabs []arenaSlab
}

type arenaSlab struct {
	buf   *[]float64
	class int // pool class, or -1 for oversized one-off allocations
}

// GetArena fetches a pooled arena (a fresh &Arena{} works too). Pair
// with Release.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// Release resets the arena and returns it to the shared pool. The
// caller must not use the arena, or any Mat it produced, afterwards.
func (a *Arena) Release() {
	a.Reset()
	arenaPool.Put(a)
}

// Reset reclaims every slab handed out since the last Reset. Mats
// produced before the Reset alias recycled memory and must not be used
// again.
func (a *Arena) Reset() {
	for i, s := range a.slabs {
		if s.class >= 0 {
			slabPools[s.class].Put(s.buf)
		}
		a.slabs[i] = arenaSlab{}
	}
	a.slabs = a.slabs[:0]
}

// Mat returns an r×c matrix whose backing slab comes from the arena.
// Contents are unspecified: callers must fully overwrite it (every
// kernel with an Into form clears or overwrites its destination).
func (a *Arena) Mat(r, c int) *Mat {
	return &Mat{R: r, C: c, V: a.slice(r * c)}
}

// slice returns an n-element scratch slice from the pools.
func (a *Arena) slice(n int) []float64 {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1))
	if class > maxPooledClass {
		buf := make([]float64, n)
		a.slabs = append(a.slabs, arenaSlab{buf: &buf, class: -1})
		return buf
	}
	var buf *[]float64
	if got := slabPools[class].Get(); got != nil {
		buf = got.(*[]float64)
	} else {
		b := make([]float64, 1<<class)
		buf = &b
	}
	a.slabs = append(a.slabs, arenaSlab{buf: buf, class: class})
	return (*buf)[:n]
}
