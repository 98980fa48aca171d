// Package nn is a from-scratch, stdlib-only neural-network substrate:
// dense matrices, fully connected layers, activations, losses and the
// optimizer family the paper's components use (SGD, Adam, RMSprop for the
// 3D-AAE, ADADELTA for docking local search). It replaces the
// PyTorch/TensorRT stack of the paper's ML1 and S2 stages (see DESIGN.md,
// Substitutions).
//
// The design is deliberately simple: explicit Forward/Backward per layer
// with parameter gradients accumulated into Param.G, no autodiff graph.
// That is all an MLP/PointNet-style model needs, keeps every FLOP
// countable for the Table 3 methodology, and avoids reflection-heavy
// abstractions in the hot path.
package nn

import (
	"fmt"
	"math"

	"impeccable/internal/xrand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	V    []float64
}

// NewMat allocates an R×C zero matrix.
func NewMat(r, c int) *Mat {
	return &Mat{R: r, C: c, V: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.C {
			panic("nn: ragged rows")
		}
		copy(m.V[i*m.C:(i+1)*m.C], row)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.V[i*m.C+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.V[i*m.C+j] = v }

// Row returns a view of row i (shared storage).
func (m *Mat) Row(i int) []float64 { return m.V[i*m.C : (i+1)*m.C] }

// Rows returns a view of rows [lo, hi) (shared storage).
func (m *Mat) Rows(lo, hi int) *Mat {
	return &Mat{R: hi - lo, C: m.C, V: m.V[lo*m.C : hi*m.C]}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.R, m.C)
	copy(out.V, m.V)
	return out
}

// Zero clears all elements in place.
func (m *Mat) Zero() {
	for i := range m.V {
		m.V[i] = 0
	}
}

// MatMul returns a·b. Panics on shape mismatch. Dispatches to the
// blocked, goroutine-parallel kernels (kernels.go), which are
// bit-identical to the scalar reference (kernels_ref.go) with full
// IEEE semantics — zero terms are only elided when the other operand
// is finite, so 0·NaN and 0·±Inf propagate.
func MatMul(a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	return MatMulInto(NewMat(a.R, b.C), a, b)
}

// MatMulATB returns aᵀ·b without materializing the transpose.
func MatMulATB(a, b *Mat) *Mat {
	if a.R != b.R {
		panic("nn: MatMulATB shape mismatch")
	}
	return MatMulATBInto(NewMat(a.C, b.C), a, b)
}

// MatMulABT returns a·bᵀ without materializing the transpose.
func MatMulABT(a, b *Mat) *Mat {
	if a.C != b.C {
		panic("nn: MatMulABT shape mismatch")
	}
	return MatMulABTInto(NewMat(a.R, b.R), a, b)
}

// AddInPlace computes m += x (same shape).
func (m *Mat) AddInPlace(x *Mat) {
	if m.R != x.R || m.C != x.C {
		panic("nn: AddInPlace shape mismatch")
	}
	for i := range m.V {
		m.V[i] += x.V[i]
	}
}

// ScaleInPlace computes m *= s.
func (m *Mat) ScaleInPlace(s float64) {
	for i := range m.V {
		m.V[i] *= s
	}
}

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	W *Mat // value
	G *Mat // gradient (same shape)
}

// NewParam allocates a zero parameter of the given shape.
func NewParam(r, c int) *Param {
	return &Param{W: NewMat(r, c), G: NewMat(r, c)}
}

// HeInit fills p.W with He-normal values (ReLU-friendly).
func (p *Param) HeInit(r *xrand.RNG) {
	std := math.Sqrt(2.0 / float64(p.W.R))
	for i := range p.W.V {
		p.W.V[i] = r.Norm(0, std)
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }
