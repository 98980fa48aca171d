// kernels.go holds the blocked, goroutine-parallel matmul kernels behind
// the public MatMul family. The design constraints, in order:
//
//  1. Bit-identity: every output element is produced by a single
//     accumulator chain that adds terms in exactly the reference
//     kernel's order (see kernels_ref.go), so blocking and parallelism
//     never perturb a result. Register blocking only changes *which*
//     loads are shared, never the per-element summation order, and the
//     row-parallel path assigns each output element to exactly one
//     goroutine.
//  2. IEEE semantics: a zero multiplier may only be skipped when the
//     other operand panel is entirely finite (0·NaN = NaN, 0·±Inf =
//     NaN). The panel is scanned once per call — O(len) against the
//     O(R·len) multiply — so sparse fingerprint rows keep their fast
//     path without silently dropping NaN/Inf propagation. The same rule
//     covers whole zero rows: aᵀ·b skips rows of b that are all zero
//     when a is finite, and a·bᵀ writes +0 rows for rows of a that are
//     all zero when b is finite. A 0·finite term is ±0, and adding ±0
//     changes a chain only when it is −0; a chain from +0 never is, and
//     an accumulating aᵀ·b skips no row while dst holds a −0 and never
//     skips single zero multipliers.
//  3. Determinism: parallelism is a pure row partition; no atomics, no
//     reductions across goroutines, no scheduling-order dependence.
package nn

import (
	"fmt"
	"math"
	"sync"

	"impeccable/internal/par"
)

// kernelParallelFlops is the minimum number of multiply-adds a goroutine
// must amortize before the kernels fan out. Below ~10⁵ the WaitGroup
// and scheduling overhead beats the win on every core count we target.
const kernelParallelFlops = 1 << 17

// kernelWorkers sizes the fan-out for a kernel processing `units`
// independent slices of `flops` total multiply-adds: no wider than the
// goroutines par.For could run on now. Callers at 1 call the kernel body
// directly, so the inline path builds no closure.
func kernelWorkers(units int, flops int64) int {
	return int(max(1, min(int64(par.Width()), flops/kernelParallelFlops, int64(units))))
}

// span returns the i-th of w contiguous ranges that split [0, n).
func span(n, w, i int) (lo, hi int) { return i * n / w, (i + 1) * n / w }

// allFinite reports whether every element of v is finite. x-x is 0 for
// finite values and NaN for NaN and ±Inf, and NaN survives any sum, so
// four branch-free partial sums of x-x replace two classification calls
// and a branch per element.
func allFinite(v []float64) bool {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		s0 += v[i] - v[i]
		s1 += v[i+1] - v[i+1]
		s2 += v[i+2] - v[i+2]
		s3 += v[i+3] - v[i+3]
	}
	for ; i < len(v); i++ {
		s0 += v[i] - v[i]
	}
	return s0+s1+s2+s3 == 0
}

// MatMulInto computes dst = a·b, overwriting dst (shape a.R×b.C). dst
// must not alias a or b. It is the allocation-free form of MatMul; see
// the package doc in this file for the bit-identity contract.
func MatMulInto(dst, a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	if dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("nn: MatMulInto dst %dx%d, want %dx%d", dst.R, dst.C, a.R, b.C))
	}
	// Zero multipliers from a may be skipped only while b is all-finite;
	// b is scanned only when a has a zero to skip.
	skipZero := hasZero(a.V) && allFinite(b.V)
	if w := kernelWorkers(a.R, int64(a.R)*int64(a.C)*int64(b.C)); w > 1 {
		par.For(w, func(i int) {
			lo, hi := span(a.R, w, i)
			matMulRows(dst, a, b, lo, hi, skipZero)
		})
	} else {
		matMulRows(dst, a, b, 0, a.R, skipZero)
	}
	return dst
}

// matMulRows computes dst rows [lo, hi) with a 4-row register block:
// four rows of a share each b-row load, while every dst element keeps
// its own accumulator summing over k in reference order.
func matMulRows(dst, a, b *Mat, lo, hi int, skipZero bool) {
	n, kk := b.C, a.C
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := dst.V[(i+0)*n : (i+1)*n]
		r1 := dst.V[(i+1)*n : (i+2)*n]
		r2 := dst.V[(i+2)*n : (i+3)*n]
		r3 := dst.V[(i+3)*n : (i+4)*n]
		clearRow(r0)
		clearRow(r1)
		clearRow(r2)
		clearRow(r3)
		a0 := a.V[(i+0)*kk : (i+1)*kk]
		a1 := a.V[(i+1)*kk : (i+2)*kk]
		a2 := a.V[(i+2)*kk : (i+3)*kk]
		a3 := a.V[(i+3)*kk : (i+4)*kk]
		for k := 0; k < kk; k++ {
			v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
			if skipZero && v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			bk := b.V[k*n : k*n+n]
			for j, bv := range bk {
				r0[j] += v0 * bv
				r1[j] += v1 * bv
				r2[j] += v2 * bv
				r3[j] += v3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		ri := dst.V[i*n : (i+1)*n]
		clearRow(ri)
		ai := a.V[i*kk : (i+1)*kk]
		for k := 0; k < kk; k++ {
			v := ai[k]
			if skipZero && v == 0 {
				continue
			}
			bk := b.V[k*n : k*n+n]
			for j, bv := range bk {
				ri[j] += v * bv
			}
		}
	}
}

// MatMulATBInto computes dst = aᵀ·b without materializing the
// transpose, overwriting dst (shape a.C×b.C). dst must not alias a or b.
func MatMulATBInto(dst, a, b *Mat) *Mat {
	if a.R != b.R {
		panic("nn: MatMulATB shape mismatch")
	}
	if dst.R != a.C || dst.C != b.C {
		panic(fmt.Sprintf("nn: MatMulATBInto dst %dx%d, want %dx%d", dst.R, dst.C, a.C, b.C))
	}
	matMulATB(dst, a, b, false)
	return dst
}

// matMulATBAccInto accumulates dst += aᵀ·b without clearing dst first —
// the gradient-accumulation form (Param.G carries sums across batches).
func matMulATBAccInto(dst, a, b *Mat) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic("nn: matMulATBAccInto shape mismatch")
	}
	matMulATB(dst, a, b, true)
}

func matMulATB(dst, a, b *Mat, acc bool) {
	// Zero terms may be skipped only where they cannot change a chain:
	// the other operand must be finite, and the chain must not be −0
	// (−0 + +0 is +0, so a skipped +0 term would leave −0). A chain from
	// +0 never is. An accumulating dst is scanned for −0 only when whole
	// rows would be skipped, and its zero multipliers are never skipped:
	// the scan would cost as much as the multiply for the one-row-per-
	// sample gradients that accumulate here.
	skipZero := !acc && hasZero(a.V) && allFinite(b.V)
	buf := rowLists.Get().(*[]int)
	ks := nonZeroRows((*buf)[:0], b)
	if len(ks) < b.R && (!allFinite(a.V) || acc && hasNegZero(dst.V)) {
		ks = ks[:0]
		for k := 0; k < b.R; k++ {
			ks = append(ks, k)
		}
	}
	if w := kernelWorkers(a.C, int64(len(ks))*int64(a.C)*int64(b.C)); w > 1 {
		par.For(w, func(i int) {
			lo, hi := span(a.C, w, i)
			matMulATBCols(dst, a, b, ks, lo, hi, acc, skipZero)
		})
	} else {
		matMulATBCols(dst, a, b, ks, 0, a.C, acc, skipZero)
	}
	*buf = ks
	rowLists.Put(buf)
}

// rowLists recycles nonZeroRows' lists, one per matMulATB in flight.
var rowLists = sync.Pool{New: func() any { return new([]int) }}

// nonZeroRows appends to ks the rows of b that hold a nonzero element. A row
// left out contributes only a·0 = ±0 terms, which leave any chain that
// is not −0 unchanged when a is finite. After the AAE's max-pool scatter
// most gradient rows are zero, so the list is usually far shorter than
// b.R.
func nonZeroRows(ks []int, b *Mat) []int {
	for k := 0; k < b.R; k++ {
		if !allZero(b.V[k*b.C : (k+1)*b.C]) {
			ks = append(ks, k)
		}
	}
	return ks
}

// matMulATBCols computes dst rows [lo, hi) — columns of a — with a
// 4-column register block sharing each (a-row, b-row) pair across four
// accumulator rows. The rows of a and b listed in ks, in order, are the
// sequential reduction.
func matMulATBCols(dst, a, b *Mat, ks []int, lo, hi int, acc, skipZero bool) {
	n, ac := b.C, a.C
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := dst.V[(i+0)*n : (i+1)*n]
		r1 := dst.V[(i+1)*n : (i+2)*n]
		r2 := dst.V[(i+2)*n : (i+3)*n]
		r3 := dst.V[(i+3)*n : (i+4)*n]
		if !acc {
			clearRow(r0)
			clearRow(r1)
			clearRow(r2)
			clearRow(r3)
		}
		for _, k := range ks {
			ak := a.V[k*ac : k*ac+ac]
			v0, v1, v2, v3 := ak[i], ak[i+1], ak[i+2], ak[i+3]
			if skipZero && v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			bk := b.V[k*n : k*n+n]
			for j, bv := range bk {
				r0[j] += v0 * bv
				r1[j] += v1 * bv
				r2[j] += v2 * bv
				r3[j] += v3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		ri := dst.V[i*n : (i+1)*n]
		if !acc {
			clearRow(ri)
		}
		for _, k := range ks {
			v := a.V[k*ac+i]
			if skipZero && v == 0 {
				continue
			}
			bk := b.V[k*n : k*n+n]
			for j, bv := range bk {
				ri[j] += v * bv
			}
		}
	}
}

// MatMulABTInto computes dst = a·bᵀ without materializing the
// transpose, overwriting dst (shape a.R×b.R). dst must not alias a or b.
func MatMulABTInto(dst, a, b *Mat) *Mat {
	if a.C != b.C {
		panic("nn: MatMulABT shape mismatch")
	}
	if dst.R != a.R || dst.C != b.R {
		panic(fmt.Sprintf("nn: MatMulABTInto dst %dx%d, want %dx%d", dst.R, dst.C, a.R, b.R))
	}
	// A row of a that is all zero yields a +0 dst row while b is finite:
	// every term is ±0 and a chain from +0 stays +0. b is scanned only
	// when a has such a row.
	skipZero := hasZeroRow(a) && allFinite(b.V)
	if w := kernelWorkers(a.R, int64(a.R)*int64(a.C)*int64(b.R)); w > 1 {
		par.For(w, func(i int) {
			lo, hi := span(a.R, w, i)
			matMulABTRows(dst, a, b, lo, hi, skipZero)
		})
	} else {
		matMulABTRows(dst, a, b, 0, a.R, skipZero)
	}
	return dst
}

// matMulABTRows computes dst rows [lo, hi) as dot products, four
// b-rows at a time so each a-element load feeds four independent
// accumulators (each still summing over k in reference order).
func matMulABTRows(dst, a, b *Mat, lo, hi int, skipZero bool) {
	bc := b.C
	for i := lo; i < hi; i++ {
		arow := a.V[i*a.C : (i+1)*a.C]
		orow := dst.V[i*dst.C : (i+1)*dst.C]
		if skipZero && allZero(arow) {
			clearRow(orow)
			continue
		}
		j := 0
		for ; j+4 <= b.R; j += 4 {
			b0 := b.V[(j+0)*bc : (j+1)*bc]
			b1 := b.V[(j+1)*bc : (j+2)*bc]
			b2 := b.V[(j+2)*bc : (j+3)*bc]
			b3 := b.V[(j+3)*bc : (j+4)*bc]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.R; j++ {
			brow := b.V[j*bc : (j+1)*bc]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// hasZero reports whether v holds a ±0.
func hasZero(v []float64) bool {
	for _, x := range v {
		if x == 0 {
			return true
		}
	}
	return false
}

// hasZeroRow reports whether some row of m is all ±0.
func hasZeroRow(m *Mat) bool {
	for i := 0; i < m.R; i++ {
		if allZero(m.Row(i)) {
			return true
		}
	}
	return false
}

// allZero reports whether every element of v is ±0.
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// hasNegZero reports whether v holds a −0.
func hasNegZero(v []float64) bool {
	for _, x := range v {
		if x == 0 && math.Signbit(x) {
			return true
		}
	}
	return false
}

// clearRow zeroes a row slice (compiles to memclr).
func clearRow(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
