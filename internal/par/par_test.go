package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at the given GOMAXPROCS, which sets the budget.
func withProcs(t *testing.T, p int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// TestForSameResultsAtAnyBudget calls every index exactly once and
// places the same results by index whatever the budget.
func TestForSameResultsAtAnyBudget(t *testing.T) {
	const n = 1000
	var want []int
	for _, p := range []int{1, 2, 3, 8} {
		withProcs(t, p, func() {
			got := make([]int, n)
			calls := make([]atomic.Int32, n)
			For(n, func(i int) {
				calls[i].Add(1)
				got[i] = i*i%97 + i
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS=%d: index %d called %d times", p, i, c)
				}
			}
			if want == nil {
				want = got
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("GOMAXPROCS=%d: result %d = %d, want %d", p, i, got[i], want[i])
				}
			}
		})
	}
	For(0, func(int) { t.Fatal("For(0) called fn") })
}

// TestNestedForRunsInline saturates the budget with an outer For; every
// inner For then finds no free helper and runs its indices in order on
// the calling goroutine, so the budget is never exceeded.
func TestNestedForRunsInline(t *testing.T) {
	withProcs(t, 4, func() {
		if w := Width(); w != 4 {
			t.Fatalf("idle Width = %d, want 4", w)
		}
		const outer, inner = 4, 8
		orders := make([][]int, outer)
		widths := make([]int, outer)
		For(outer, func(i int) {
			widths[i] = Width()
			For(inner, func(j int) { orders[i] = append(orders[i], j) })
		})
		for i := range orders {
			if widths[i] != 1 {
				t.Errorf("outer %d: Width %d inside a saturated For, want 1", i, widths[i])
			}
			for j, v := range orders[i] {
				if v != j {
					t.Fatalf("outer %d: inner order %v, want 0..%d in order", i, orders[i], inner-1)
				}
			}
			if len(orders[i]) != inner {
				t.Fatalf("outer %d: %d inner calls, want %d", i, len(orders[i]), inner)
			}
		}
		if b := busy.Load(); b != 0 {
			t.Fatalf("%d helpers still reserved after For returned", b)
		}
	})
}

// TestForLeaksNoGoroutine: helpers exit once their For returns.
func TestForLeaksNoGoroutine(t *testing.T) {
	withProcs(t, 4, func() {
		before := runtime.NumGoroutine()
		for range 50 {
			For(16, func(int) {})
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after For, %d before", runtime.NumGoroutine(), before)
			}
			runtime.Gosched()
		}
	})
}
