package nn

import (
	"math"
	"runtime"
	"testing"

	"impeccable/internal/xrand"
)

// bitsEqual treats two floats as equal when their bit patterns match or
// both are NaN (payloads may differ between compilers, never between our
// kernels and the reference — but the looser test documents intent).
func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func assertMatBits(t *testing.T, label string, got, want *Mat) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.R, got.C, want.R, want.C)
	}
	for i, v := range got.V {
		if !bitsEqual(v, want.V[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				label, i, v, math.Float64bits(v), want.V[i], math.Float64bits(want.V[i]))
		}
	}
}

// fillMixed fills m with a mix of magnitudes and exact zeros (the
// fingerprint case) so the zero-skip fast path is exercised.
func fillMixed(m *Mat, r *xrand.RNG) {
	for i := range m.V {
		switch r.Intn(4) {
		case 0:
			m.V[i] = 0
		case 1:
			m.V[i] = r.Range(-1, 1)
		case 2:
			m.V[i] = r.Range(-1e6, 1e6)
		default:
			m.V[i] = r.Range(-1e-6, 1e-6)
		}
	}
}

// kernelShapes covers degenerate, odd (non-multiple of the 4-wide
// register block), tall/thin, and production-like shapes.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{7, 1, 7},
	{2, 3, 5},
	{4, 4, 4},
	{5, 5, 5},
	{13, 9, 11},
	{64, 264, 128}, // the surrogate's input layer shape
	{33, 17, 29},
	{309, 3, 64},   // the AAE's shared point MLP, PLPro's 309 Cα
	{309, 64, 128}, // … and its second layer
}

func TestKernelsBitIdenticalToReference(t *testing.T) {
	r := xrand.New(7)
	for _, sh := range kernelShapes {
		a := NewMat(sh.m, sh.k)
		b := NewMat(sh.k, sh.n)
		fillMixed(a, r)
		fillMixed(b, r)
		assertMatBits(t, "MatMul", MatMul(a, b), RefMatMul(a, b))

		at := NewMat(sh.k, sh.m) // aᵀ·b with shared leading dim k
		bt := NewMat(sh.k, sh.n)
		fillMixed(at, r)
		fillMixed(bt, r)
		assertMatBits(t, "MatMulATB", MatMulATB(at, bt), RefMatMulATB(at, bt))

		ab := NewMat(sh.m, sh.k)
		bb := NewMat(sh.n, sh.k)
		fillMixed(ab, r)
		fillMixed(bb, r)
		assertMatBits(t, "MatMulABT", MatMulABT(ab, bb), RefMatMulABT(ab, bb))
	}
}

// TestKernelsBitIdenticalParallel forces the goroutine fan-out (this
// host may have a single core, where kernelWorkers always picks 1) and
// checks the row-partitioned path still matches the reference exactly.
func TestKernelsBitIdenticalParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	r := xrand.New(11)
	m, k, n := 96, 264, 128 // > 2·kernelParallelFlops, so workers > 1
	if kernelWorkers(m, int64(m)*int64(k)*int64(n)) < 2 {
		t.Fatal("shape too small to exercise the parallel path")
	}
	a, b := NewMat(m, k), NewMat(k, n)
	fillMixed(a, r)
	fillMixed(b, r)
	assertMatBits(t, "MatMul parallel", MatMul(a, b), RefMatMul(a, b))

	at, bt := NewMat(k, m), NewMat(k, n)
	fillMixed(at, r)
	fillMixed(bt, r)
	assertMatBits(t, "MatMulATB parallel", MatMulATB(at, bt), RefMatMulATB(at, bt))

	ab, bb := NewMat(m, k), NewMat(n, k)
	fillMixed(ab, r)
	fillMixed(bb, r)
	assertMatBits(t, "MatMulABT parallel", MatMulABT(ab, bb), RefMatMulABT(ab, bb))
}

// TestMatMulNaNInfPropagation is the regression for the zero-skip bug:
// the old kernels skipped every aik == 0 term, so 0·NaN and 0·±Inf were
// silently dropped instead of poisoning the output. IEEE requires
// 0·NaN = NaN and 0·±Inf = NaN.
func TestMatMulNaNInfPropagation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, poison := range []float64{nan, inf, -inf} {
		a := FromRows([][]float64{{0, 1}})
		b := FromRows([][]float64{{poison, 0}, {2, 3}})
		out := MatMul(a, b)
		if !math.IsNaN(out.At(0, 0)) {
			t.Fatalf("MatMul: 0·%v dropped: got %v, want NaN", poison, out.At(0, 0))
		}
		assertMatBits(t, "MatMul poison", out, RefMatMul(a, b))

		at := FromRows([][]float64{{0}, {1}}) // aᵀ = [0 1]
		bt := FromRows([][]float64{{poison}, {2}})
		outATB := MatMulATB(at, bt)
		if !math.IsNaN(outATB.At(0, 0)) {
			t.Fatalf("MatMulATB: 0·%v dropped: got %v, want NaN", poison, outATB.At(0, 0))
		}
		assertMatBits(t, "MatMulATB poison", outATB, RefMatMulATB(at, bt))

		ab := FromRows([][]float64{{0, 1}})
		bb := FromRows([][]float64{{poison, 0}})
		outABT := MatMulABT(ab, bb)
		if !math.IsNaN(outABT.At(0, 0)) {
			t.Fatalf("MatMulABT: 0·%v dropped: got %v, want NaN", poison, outABT.At(0, 0))
		}
		assertMatBits(t, "MatMulABT poison", outABT, RefMatMulABT(ab, bb))
	}
}

// TestMatMulSparseZeroRowsExact pins the other side of the finite guard:
// with finite operands, skipping zero terms must not change a single bit
// relative to the no-skip reference.
func TestMatMulSparseZeroRowsExact(t *testing.T) {
	r := xrand.New(3)
	a := NewMat(9, 40)
	b := NewMat(40, 7)
	fillMixed(b, r)
	for i := range a.V {
		if r.Intn(10) == 0 { // ~90% zeros, like fingerprint bits
			a.V[i] = r.Range(-2, 2)
		}
	}
	assertMatBits(t, "sparse MatMul", MatMul(a, b), RefMatMul(a, b))
}

func TestArenaMats(t *testing.T) {
	ar := GetArena()
	defer ar.Release()
	m1 := ar.Mat(5, 7)
	if m1.R != 5 || m1.C != 7 || len(m1.V) != 35 {
		t.Fatalf("arena mat shape: %dx%d len %d", m1.R, m1.C, len(m1.V))
	}
	for i := range m1.V {
		m1.V[i] = float64(i)
	}
	m2 := ar.Mat(3, 3)
	for i := range m2.V {
		m2.V[i] = -1
	}
	for i := range m1.V { // distinct slabs: m2 writes must not alias m1
		if m1.V[i] != float64(i) {
			t.Fatalf("arena slabs alias: m1[%d] = %v", i, m1.V[i])
		}
	}
	ar.Reset()
	m3 := ar.Mat(2, 2)
	_ = m3.V[3] // sized correctly after reset
	if z := ar.Mat(0, 5); len(z.V) != 0 {
		t.Fatalf("zero-size arena mat has %d elements", len(z.V))
	}
}

// FuzzMatMul cross-checks the blocked kernels against the scalar
// reference on fuzzer-chosen shapes and data, including NaN/Inf.
func FuzzMatMul(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint64(0))
	f.Add(uint8(4), uint8(4), uint8(4), uint64(1))
	f.Add(uint8(13), uint8(7), uint8(5), uint64(42))
	f.Fuzz(func(t *testing.T, mr, kr, nr uint8, seed uint64) {
		m, k, n := int(mr%16)+1, int(kr%16)+1, int(nr%16)+1
		r := xrand.New(seed)
		fill := func(mat *Mat) {
			for i := range mat.V {
				switch r.Intn(8) {
				case 0:
					mat.V[i] = 0
				case 1:
					mat.V[i] = math.NaN()
				case 2:
					mat.V[i] = math.Inf(1 - 2*r.Intn(2))
				default:
					mat.V[i] = r.Range(-10, 10)
				}
			}
		}
		a, b := NewMat(m, k), NewMat(k, n)
		fill(a)
		fill(b)
		got, want := MatMul(a, b), RefMatMul(a, b)
		for i := range got.V {
			if !bitsEqual(got.V[i], want.V[i]) {
				t.Fatalf("MatMul[%d] = %v, ref %v (m=%d k=%d n=%d seed=%d)",
					i, got.V[i], want.V[i], m, k, n, seed)
			}
		}
		at, bt := NewMat(k, m), NewMat(k, n)
		fill(at)
		fill(bt)
		gATB, wATB := MatMulATB(at, bt), RefMatMulATB(at, bt)
		for i := range gATB.V {
			if !bitsEqual(gATB.V[i], wATB.V[i]) {
				t.Fatalf("MatMulATB[%d] = %v, ref %v", i, gATB.V[i], wATB.V[i])
			}
		}
		ab, bb := NewMat(m, k), NewMat(n, k)
		fill(ab)
		fill(bb)
		gABT, wABT := MatMulABT(ab, bb), RefMatMulABT(ab, bb)
		for i := range gABT.V {
			if !bitsEqual(gABT.V[i], wABT.V[i]) {
				t.Fatalf("MatMulABT[%d] = %v, ref %v", i, gABT.V[i], wABT.V[i])
			}
		}

		// The zero-row skips: the skipped operand gets whole zero rows
		// or the max-pool scatter (one nonzero per column); the other
		// operand is finite half the time (skip taken) and may hold
		// NaN/±Inf otherwise (skip refused).
		other := func(mat *Mat) {
			if r.Intn(2) == 0 {
				fill(mat)
				return
			}
			for i := range mat.V {
				mat.V[i] = r.Range(-10, 10)
			}
		}
		at, bt = NewMat(k, m), NewMat(k, n)
		other(at)
		zeroRows(bt, r)
		gATB, wATB = MatMulATB(at, bt), RefMatMulATB(at, bt)
		for i := range gATB.V {
			if !bitsEqual(gATB.V[i], wATB.V[i]) {
				t.Fatalf("zero-row MatMulATB[%d] = %v, ref %v", i, gATB.V[i], wATB.V[i])
			}
		}
		// Accumulate mode continues each dst0 element's chain; dst0
		// may hold −0, which no skipped term may be allowed to keep.
		dst := NewMat(m, n)
		for i := range dst.V {
			switch r.Intn(4) {
			case 0:
				dst.V[i] = math.Copysign(0, -1)
			case 1:
				dst.V[i] = 0
			default:
				dst.V[i] = r.Range(-10, 10)
			}
		}
		wAcc := refATBAcc(dst, at, bt)
		matMulATBAccInto(dst, at, bt)
		for i := range dst.V {
			if !bitsEqual(dst.V[i], wAcc.V[i]) {
				t.Fatalf("accumulating MatMulATB[%d] = %v (bits %x), ref %v (bits %x)",
					i, dst.V[i], math.Float64bits(dst.V[i]), wAcc.V[i], math.Float64bits(wAcc.V[i]))
			}
		}
		ab, bb = NewMat(m, k), NewMat(n, k)
		zeroRows(ab, r)
		other(bb)
		gABT, wABT = MatMulABT(ab, bb), RefMatMulABT(ab, bb)
		for i := range gABT.V {
			if !bitsEqual(gABT.V[i], wABT.V[i]) {
				t.Fatalf("zero-row MatMulABT[%d] = %v, ref %v", i, gABT.V[i], wABT.V[i])
			}
		}
	})
}

// zeroRows fills m with the shapes the zero-row skips look for: either
// the max-pool scatter (one nonzero per column, every other element
// zero, so most rows are zero) or finite rows with whole zero rows
// planted among them. Zeros come with either sign.
func zeroRows(m *Mat, r *xrand.RNG) {
	zero := func() float64 { return math.Copysign(0, float64(1-2*r.Intn(2))) }
	if r.Intn(2) == 0 {
		for i := range m.V {
			m.V[i] = zero()
		}
		for j := 0; j < m.C; j++ {
			m.Set(r.Intn(m.R), j, r.Range(-10, 10))
		}
		return
	}
	for i := 0; i < m.R; i++ {
		blank := r.Intn(2) == 0
		for j, row := 0, m.Row(i); j < m.C; j++ {
			if blank {
				row[j] = zero()
			} else {
				row[j] = r.Range(-10, 10)
			}
		}
	}
}

// refATBAcc returns dst0 + aᵀ·b with each element's chain starting at
// its dst0 value and adding the terms in the reference order.
func refATBAcc(dst0, a, b *Mat) *Mat {
	out := dst0.Clone()
	for k := 0; k < a.R; k++ {
		arow, brow := a.Row(k), b.Row(k)
		for i, av := range arow {
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// TestZeroRowSkipExact drives the zero-row skips at the AAE's backward
// shapes: after the max-pool scatter, dW = xᵀ·g and dx = g·Wᵀ meet a
// 309-row gradient with one nonzero per column, in both the clearing
// and the accumulating aᵀ·b, with a finite and with a NaN-bearing
// other operand.
func TestZeroRowSkipExact(t *testing.T) {
	r := xrand.New(13)
	for _, sh := range []struct{ rows, in, out int }{{309, 3, 64}, {309, 64, 128}} {
		for _, poison := range []bool{false, true} {
			x, g, w := NewMat(sh.rows, sh.in), NewMat(sh.rows, sh.out), NewMat(sh.in, sh.out)
			fillMixed(x, r)
			fillMixed(w, r)
			if poison {
				x.V[r.Intn(len(x.V))] = math.NaN()
				w.V[r.Intn(len(w.V))] = math.Inf(-1)
			}
			for j := 0; j < g.C; j++ {
				g.Set(r.Intn(g.R), j, r.Range(-1, 1))
			}
			assertMatBits(t, "scatter xᵀ·g", MatMulATB(x, g), RefMatMulATB(x, g))
			acc := NewMat(sh.in, sh.out)
			fillMixed(acc, r)
			want := refATBAcc(acc, x, g)
			matMulATBAccInto(acc, x, g)
			assertMatBits(t, "scatter G += xᵀ·g", acc, want)
			assertMatBits(t, "scatter g·Wᵀ", MatMulABT(g, w), RefMatMulABT(g, w))
		}
	}
}
