// Package par is the process's one fan-out primitive. For runs n
// independent calls on the calling goroutine plus as many helper
// goroutines as one process-wide budget allows: GOMAXPROCS−1 helpers in
// total, across every concurrent and nested For. A For that finds no
// free helper runs inline, so a kernel called from inside a busy
// fan-out uses its caller's core instead of oversubscribing the others.
//
// Determinism is the caller's half of the contract: fn(i) writes only
// what index i owns, and the caller combines results by index after For
// returns. Which goroutine runs which index is up to the scheduler, and
// nothing may depend on it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the helpers running across the process.
var busy atomic.Int64

// job is the state one For shares with its helpers.
type job struct {
	fn   func(int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
}

// run claims indices in increasing order until none are left.
func (j *job) run() {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		j.fn(int(i))
	}
}

func (j *job) help() {
	defer j.wg.Done()
	j.run()
}

// Width reports how many goroutines a For started now would run on: the
// caller plus every free helper. A kernel sizes its partition with it
// and, at 1, calls its body directly instead of building a closure for
// For.
func Width() int {
	return 1 + int(max(0, int64(runtime.GOMAXPROCS(0)-1)-busy.Load()))
}

// acquire reserves up to want helpers from the budget.
func acquire(want int) int {
	if want <= 0 {
		return 0
	}
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		b := busy.Load()
		n := min(int64(want), limit-b)
		if n <= 0 {
			return 0
		}
		if busy.CompareAndSwap(b, b+n) {
			return int(n)
		}
	}
}

// For calls fn(i) once for every i in [0, n) and returns when all calls
// have finished. Indices are handed out in increasing order to the
// caller and to up to n−1 helpers taken from the budget.
func For(n int, fn func(i int)) {
	h := acquire(n - 1)
	if h == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &job{fn: fn, n: int64(n)}
	j.wg.Add(h)
	for range h {
		go j.help()
	}
	j.run()
	j.wg.Wait()
	busy.Add(-int64(h))
}
