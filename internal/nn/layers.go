package nn

import (
	"fmt"
	"math"

	"impeccable/internal/xrand"
)

// Layer is a differentiable module operating on batched row vectors.
type Layer interface {
	// Forward maps a batch (rows = samples) to its output batch and
	// caches whatever Backward needs.
	Forward(x *Mat) *Mat
	// Backward receives dL/d(output) and returns dL/d(input),
	// accumulating parameter gradients.
	Backward(grad *Mat) *Mat
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Inferencer is the inference-only forward contract: Infer computes the
// same outputs as Forward, bit for bit, but caches nothing on the layer
// and draws all scratch from the caller's arena. Because it never
// writes layer state, any number of goroutines may Infer through the
// same layer concurrently — this is what lets inference workers share
// one set of weights instead of deep-copying the model per worker.
type Inferencer interface {
	Infer(x *Mat, ar *Arena) *Mat
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	W, B *Param
	x    *Mat // cached input
}

// NewDense builds an in→out dense layer with He initialization.
func NewDense(in, out int, r *xrand.RNG) *Dense {
	d := &Dense{W: NewParam(in, out), B: NewParam(1, out)}
	d.W.HeInit(r)
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *Mat) *Mat {
	d.x = x
	out := MatMul(x, d.W.W)
	for i := 0; i < out.R; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += d.B.W.V[j]
		}
	}
	return out
}

// Backward implements Layer, treating the whole batch as one sample:
// dW gets one aᵀ·b chain over all rows, added to W.G.
func (d *Dense) Backward(grad *Mat) *Mat { return d.BackwardRows(grad, max(grad.R, 1)) }

// BackwardRows backpropagates a batch of consecutive samples of
// rowsPerSample rows each, with the gradient sums segmented per sample:
// each sample's dW is its own aᵀ·b chain from zero, added to W.G in
// sample order, exactly as if the samples had been backpropagated one
// by one. For one row per sample the chains accumulate straight into
// W.G: G + (0 + x·g) and G + x·g differ only when G is −0, and a
// gradient accumulator that starts at +0 never becomes −0. The bias
// gradient and dx are row by row, so they never depend on the
// segmentation.
func (d *Dense) BackwardRows(grad *Mat, rowsPerSample int) *Mat {
	if rowsPerSample < 1 {
		panic(fmt.Sprintf("nn: Dense.BackwardRows with %d rows per sample", rowsPerSample))
	}
	// dW += xᵀ·grad ; db += Σ_rows grad ; dx = grad·Wᵀ.
	if rowsPerSample == 1 {
		matMulATBAccInto(d.W.G, d.x, grad)
	} else {
		gw := NewMat(d.W.G.R, d.W.G.C)
		for lo := 0; lo < grad.R; lo += rowsPerSample {
			hi := min(lo+rowsPerSample, grad.R)
			MatMulATBInto(gw, d.x.Rows(lo, hi), grad.Rows(lo, hi))
			d.W.G.AddInPlace(gw)
		}
	}
	for i := 0; i < grad.R; i++ {
		row := grad.Row(i)
		for j := range row {
			d.B.G.V[j] += row[j]
		}
	}
	return MatMulABT(grad, d.W.W)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Infer implements Inferencer: same arithmetic as Forward (matmul, then
// bias added after) with no input cache and all scratch from the arena.
func (d *Dense) Infer(x *Mat, ar *Arena) *Mat {
	out := ar.Mat(x.R, d.W.W.C)
	MatMulInto(out, x, d.W.W)
	for i := 0; i < out.R; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += d.B.W.V[j]
		}
	}
	return out
}

// ReLU is the rectified linear activation.
type ReLU struct{ mask []bool }

// keepBits is all ones when keep is set and zero otherwise: ANDed with
// a float's bits it yields the float or +0 without a data-dependent
// branch (ReLU inputs are positive at random, which a branch mispredicts
// half the time).
func keepBits(keep bool) uint64 {
	var m uint64
	if keep {
		m = ^uint64(0)
	}
	return m
}

// Forward implements Layer. v <= 0 is false for NaN, which passes
// through; every other input at or below zero becomes +0.
func (a *ReLU) Forward(x *Mat) *Mat {
	out := NewMat(x.R, x.C)
	if cap(a.mask) < len(out.V) {
		a.mask = make([]bool, len(out.V))
	}
	a.mask = a.mask[:len(out.V)]
	mask, o := a.mask, out.V[:len(x.V)]
	for i, v := range x.V {
		keep := !(v <= 0)
		mask[i] = keep
		o[i] = math.Float64frombits(math.Float64bits(v) & keepBits(keep))
	}
	return out
}

// Backward implements Layer.
func (a *ReLU) Backward(grad *Mat) *Mat {
	out := NewMat(grad.R, grad.C)
	mask, o := a.mask[:len(grad.V)], out.V[:len(grad.V)]
	for i, g := range grad.V {
		o[i] = math.Float64frombits(math.Float64bits(g) & keepBits(mask[i]))
	}
	return out
}

// Params implements Layer.
func (a *ReLU) Params() []*Param { return nil }

// Infer implements Inferencer, with Forward's arithmetic.
func (a *ReLU) Infer(x *Mat, ar *Arena) *Mat {
	out := ar.Mat(x.R, x.C)
	o := out.V[:len(x.V)]
	for i, v := range x.V {
		o[i] = math.Float64frombits(math.Float64bits(v) & keepBits(!(v <= 0)))
	}
	return out
}

// LeakyReLU keeps a small negative-side slope (used by the AAE critic).
type LeakyReLU struct {
	Alpha float64
	x     *Mat
}

// Forward implements Layer.
func (a *LeakyReLU) Forward(x *Mat) *Mat {
	a.x = x
	out := x.Clone()
	for i, v := range out.V {
		if v < 0 {
			out.V[i] = a.Alpha * v
		}
	}
	return out
}

// Backward implements Layer.
func (a *LeakyReLU) Backward(grad *Mat) *Mat {
	out := grad.Clone()
	for i := range out.V {
		if a.x.V[i] < 0 {
			out.V[i] *= a.Alpha
		}
	}
	return out
}

// Params implements Layer.
func (a *LeakyReLU) Params() []*Param { return nil }

// Infer implements Inferencer.
func (a *LeakyReLU) Infer(x *Mat, ar *Arena) *Mat {
	out := ar.Mat(x.R, x.C)
	for i, v := range x.V {
		if v < 0 {
			out.V[i] = a.Alpha * v
		} else {
			out.V[i] = v
		}
	}
	return out
}

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{ y *Mat }

// Forward implements Layer.
func (a *Tanh) Forward(x *Mat) *Mat {
	out := x.Clone()
	for i, v := range out.V {
		out.V[i] = math.Tanh(v)
	}
	a.y = out
	return out
}

// Backward implements Layer.
func (a *Tanh) Backward(grad *Mat) *Mat {
	out := grad.Clone()
	for i := range out.V {
		out.V[i] *= 1 - a.y.V[i]*a.y.V[i]
	}
	return out
}

// Params implements Layer.
func (a *Tanh) Params() []*Param { return nil }

// Infer implements Inferencer.
func (a *Tanh) Infer(x *Mat, ar *Arena) *Mat {
	out := ar.Mat(x.R, x.C)
	for i, v := range x.V {
		out.V[i] = math.Tanh(v)
	}
	return out
}

// Sigmoid is the logistic activation.
type Sigmoid struct{ y *Mat }

// Forward implements Layer.
func (a *Sigmoid) Forward(x *Mat) *Mat {
	out := x.Clone()
	for i, v := range out.V {
		out.V[i] = 1 / (1 + math.Exp(-v))
	}
	a.y = out
	return out
}

// Backward implements Layer.
func (a *Sigmoid) Backward(grad *Mat) *Mat {
	out := grad.Clone()
	for i := range out.V {
		out.V[i] *= a.y.V[i] * (1 - a.y.V[i])
	}
	return out
}

// Params implements Layer.
func (a *Sigmoid) Params() []*Param { return nil }

// Infer implements Inferencer.
func (a *Sigmoid) Infer(x *Mat, ar *Arena) *Mat {
	out := ar.Mat(x.R, x.C)
	for i, v := range x.V {
		out.V[i] = 1 / (1 + math.Exp(-v))
	}
	return out
}

// Sequential chains layers into a network.
type Sequential struct{ Layers []Layer }

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x *Mat) *Mat {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *Mat) *Mat { return s.BackwardRows(grad, max(grad.R, 1)) }

// BackwardRows backpropagates a batch of consecutive samples of
// rowsPerSample rows each; Dense layers segment their weight gradients
// per sample (see Dense.BackwardRows), every other layer is row-wise.
func (s *Sequential) BackwardRows(grad *Mat, rowsPerSample int) *Mat {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		if d, ok := s.Layers[i].(*Dense); ok {
			grad = d.BackwardRows(grad, rowsPerSample)
		} else {
			grad = s.Layers[i].Backward(grad)
		}
	}
	return grad
}

// Infer implements Inferencer: a cache-free forward pass producing the
// same bits as Forward. The returned Mat is arena-backed and valid only
// until the arena's next Reset/Release; Clone it (or copy the rows out)
// to keep the values. Panics if any layer lacks an Infer method.
func (s *Sequential) Infer(x *Mat, ar *Arena) *Mat {
	for _, l := range s.Layers {
		inf, ok := l.(Inferencer)
		if !ok {
			panic(fmt.Sprintf("nn: layer %T has no inference-only path (does not implement Inferencer)", l))
		}
		x = inf.Infer(x, ar)
	}
	return x
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all parameter gradients.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total scalar parameter count.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += len(p.W.V)
	}
	return n
}

// ForwardFlops estimates floating-point operations for one forward pass at
// the given batch size (2·in·out per dense layer per sample), for Table 3
// style accounting.
func (s *Sequential) ForwardFlops(batch int) int64 {
	var f int64
	for _, l := range s.Layers {
		if d, ok := l.(*Dense); ok {
			f += int64(batch) * int64(2*d.W.W.R*d.W.W.C)
		}
	}
	return f
}
