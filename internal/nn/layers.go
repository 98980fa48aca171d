package nn

import (
	"fmt"
	"math"

	"impeccable/internal/xrand"
)

// Layer is a differentiable module operating on batched row vectors.
// A layer holds only its weights. What a forward pass leaves for the
// backward pass lives in an activation record (Record), so any number
// of records may run through one layer at once.
type Layer interface {
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param

	// forward maps a batch (rows = samples) to its output batch and
	// records in t whatever backward needs; backward receives
	// dL/d(output) and returns dL/d(input). Both read the weights and
	// write only t. commit, the one method that writes Param.G, adds
	// the gradients of t's last backward.
	forward(t *tape, x *Mat) *Mat
	backward(t *tape, grad *Mat, rowsPerSample int) *Mat
	commit(t *tape)
}

// tape is one layer's slot in an activation record: what forward
// leaves for backward, what backward leaves for commit, and the owned
// buffers both reuse while their capacity allows.
type tape struct {
	x, grad *Mat // the last forward's input and backward's output gradient (caller's)
	rows    int  // rows per sample of the last backward
	out, dx *Mat // output and input gradient (owned)

	// ownIn and ownGrad tell the layer that its input, or the gradient
	// backward receives, is scratch of the same record that nothing
	// reads again, so it may work in place. keepOut is set by a layer
	// whose backward reads its own output.
	ownIn, ownGrad, keepOut bool

	gw     []*Mat // per-sample weight gradients when rows > 1 (Dense)
	xs, gs Mat    // one sample's rows of x and grad (Dense)
	mask   []bool // ReLU
	cols   *Mat   // im2col patches of x (Conv2D)
	g2     *Mat   // grad reshaped to one output position per row (Conv2D)
	argmax []int  // input index of each pooled maximum (MaxPool2D)
}

// Reuse returns m reshaped to r×c, reallocating only when its capacity
// is short (or m is nil), so a buffer reused across calls stops
// allocating once it has seen its largest shape. The contents are
// unspecified: callers overwrite or clear them.
func Reuse(m *Mat, r, c int) *Mat {
	if m == nil || cap(m.V) < r*c {
		return NewMat(r, c)
	}
	m.R, m.C, m.V = r, c, m.V[:r*c]
	return m
}

// view points v at rows [lo, hi) of m without allocating a header.
func view(v, m *Mat, lo, hi int) *Mat {
	*v = Mat{R: hi - lo, C: m.C, V: m.V[lo*m.C : hi*m.C]}
	return v
}

// Inferencer is the inference-only forward contract: Infer computes the
// same outputs as a record's forward pass, bit for bit, but records
// nothing and draws all scratch from the caller's arena, so any number
// of goroutines may Infer through the same layer concurrently — this is
// what lets inference workers share one set of weights instead of
// deep-copying the model per worker.
type Inferencer interface {
	Infer(x *Mat, ar *Arena) *Mat
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct{ W, B *Param }

// NewDense builds an in→out dense layer with He initialization.
func NewDense(in, out int, r *xrand.RNG) *Dense {
	d := &Dense{W: NewParam(in, out), B: NewParam(1, out)}
	d.W.HeInit(r)
	return d
}

func (d *Dense) forward(t *tape, x *Mat) *Mat {
	t.x = x
	t.out = Reuse(t.out, x.R, d.W.W.C)
	out := MatMulInto(t.out, x, d.W.W)
	for i := 0; i < out.R; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += d.B.W.V[j]
		}
	}
	return out
}

// backward computes dx = grad·Wᵀ and, for samples of several rows,
// each sample's own dW chain from zero. Nothing here reads or writes
// the accumulators; that is commit's.
func (d *Dense) backward(t *tape, grad *Mat, rowsPerSample int) *Mat {
	if rowsPerSample < 1 {
		panic(fmt.Sprintf("nn: Dense backward with %d rows per sample", rowsPerSample))
	}
	t.grad, t.rows = grad, rowsPerSample
	if rowsPerSample > 1 {
		for s := 0; s*rowsPerSample < grad.R; s++ {
			if s == len(t.gw) {
				t.gw = append(t.gw, NewMat(d.W.G.R, d.W.G.C))
			}
			lo := s * rowsPerSample
			hi := min(lo+rowsPerSample, grad.R)
			MatMulATBInto(t.gw[s], view(&t.xs, t.x, lo, hi), view(&t.gs, grad, lo, hi))
		}
	}
	t.dx = Reuse(t.dx, grad.R, d.W.W.R)
	return MatMulABTInto(t.dx, grad, d.W.W)
}

// commit adds the last backward's gradients to W.G and B.G: the
// per-sample dWs in sample order, exactly as if the samples had been
// backpropagated one by one, then the bias rows in row order. For one
// row per sample the chains accumulate straight into W.G: G + (0 + x·g)
// and G + x·g differ only when G is −0, and a gradient accumulator that
// starts at +0 never becomes −0.
func (d *Dense) commit(t *tape) {
	if t.rows == 1 {
		matMulATBAccInto(d.W.G, t.x, t.grad)
	} else {
		for s := 0; s*t.rows < t.grad.R; s++ {
			d.W.G.AddInPlace(t.gw[s])
		}
	}
	for i := 0; i < t.grad.R; i++ {
		row := t.grad.Row(i)
		for j := range row {
			d.B.G.V[j] += row[j]
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Infer implements Inferencer: forward's arithmetic (matmul, then bias
// added after) with all scratch from the arena.
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

// activation supplies the parameter-free half of Layer.
type activation struct{}

// Params implements Layer.
func (activation) Params() []*Param { return nil }

func (activation) commit(*tape) {}

// ReLU is the rectified linear activation.
type ReLU struct{ activation }

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

// forward: v <= 0 is false for NaN, which passes through; every other
// input at or below zero becomes +0. Each element is read before it is
// written, so it works in place on scratch input.
func (a *ReLU) forward(t *tape, x *Mat) *Mat {
	if t.ownIn {
		t.out = x
	} else {
		t.out = Reuse(t.out, x.R, x.C)
	}
	if cap(t.mask) < len(x.V) {
		t.mask = make([]bool, len(x.V))
	}
	t.mask = t.mask[:len(x.V)]
	mask, o := t.mask, t.out.V[:len(x.V)]
	for i, v := range x.V {
		keep := !(v <= 0)
		mask[i] = keep
		o[i] = math.Float64frombits(math.Float64bits(v) & keepBits(keep))
	}
	return t.out
}

func (a *ReLU) backward(t *tape, grad *Mat, _ int) *Mat {
	if t.ownGrad {
		t.dx = grad
	} else {
		t.dx = Reuse(t.dx, grad.R, grad.C)
	}
	mask, o := t.mask[:len(grad.V)], t.dx.V[:len(grad.V)]
	for i, g := range grad.V {
		o[i] = math.Float64frombits(math.Float64bits(g) & keepBits(mask[i]))
	}
	return t.dx
}

// Infer implements Inferencer, with forward's arithmetic.
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
	activation
}

func (a *LeakyReLU) forward(t *tape, x *Mat) *Mat {
	t.x = x
	t.out = Reuse(t.out, x.R, x.C)
	for i, v := range x.V {
		if v < 0 {
			v *= a.Alpha
		}
		t.out.V[i] = v
	}
	return t.out
}

func (a *LeakyReLU) backward(t *tape, grad *Mat, _ int) *Mat {
	t.dx = Reuse(t.dx, grad.R, grad.C)
	for i, g := range grad.V {
		if t.x.V[i] < 0 {
			g *= a.Alpha
		}
		t.dx.V[i] = g
	}
	return t.dx
}

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
type Tanh struct{ activation }

func (a *Tanh) forward(t *tape, x *Mat) *Mat {
	t.out, t.keepOut = Reuse(t.out, x.R, x.C), true
	for i, v := range x.V {
		t.out.V[i] = math.Tanh(v)
	}
	return t.out
}

func (a *Tanh) backward(t *tape, grad *Mat, _ int) *Mat {
	t.dx = Reuse(t.dx, grad.R, grad.C)
	for i, g := range grad.V {
		y := t.out.V[i]
		t.dx.V[i] = g * (1 - y*y)
	}
	return t.dx
}

// Infer implements Inferencer.
func (a *Tanh) Infer(x *Mat, ar *Arena) *Mat {
	out := ar.Mat(x.R, x.C)
	for i, v := range x.V {
		out.V[i] = math.Tanh(v)
	}
	return out
}

// Sigmoid is the logistic activation.
type Sigmoid struct{ activation }

func (a *Sigmoid) forward(t *tape, x *Mat) *Mat {
	t.out, t.keepOut = Reuse(t.out, x.R, x.C), true
	for i, v := range x.V {
		t.out.V[i] = 1 / (1 + math.Exp(-v))
	}
	return t.out
}

func (a *Sigmoid) backward(t *tape, grad *Mat, _ int) *Mat {
	t.dx = Reuse(t.dx, grad.R, grad.C)
	for i, g := range grad.V {
		y := t.out.V[i]
		t.dx.V[i] = g * (y * (1 - y))
	}
	return t.dx
}

// Infer implements Inferencer.
func (a *Sigmoid) Infer(x *Mat, ar *Arena) *Mat {
	out := ar.Mat(x.R, x.C)
	for i, v := range x.V {
		out.V[i] = 1 / (1 + math.Exp(-v))
	}
	return out
}

// Sequential chains layers into a network.
type Sequential struct {
	Layers []Layer
	own    *Record // what Forward and BackwardRows run through
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Record is one goroutine's activation record through a Sequential:
// per layer, the inputs, outputs and masks a forward pass leaves for
// its backward pass, the output gradients the backward pass leaves for
// Commit, and the buffers that hold them, reused from call to call.
//
// Forward and Backward only read the weights, so any number of records
// may run through one network at once. Commit is the one step that
// writes the parameter gradients; committing records one at a time, in
// sample order, accumulates exactly what a single record running the
// samples in that order would.
type Record struct {
	net   *Sequential
	tapes []tape
}

// NewRecord returns an empty activation record through s.
func (s *Sequential) NewRecord() *Record {
	return &Record{net: s, tapes: make([]tape, len(s.Layers))}
}

// Forward runs x through the network. The result is the record's own
// buffer, valid until its next Forward. Past the first layer, each
// layer's input is the previous layer's output, which that layer's
// backward does not read unless it keeps its output.
func (r *Record) Forward(x *Mat) *Mat {
	for i, l := range r.net.Layers {
		r.tapes[i].ownIn = i > 0 && !r.tapes[i-1].keepOut
		x = l.forward(&r.tapes[i], x)
	}
	return x
}

// Backward backpropagates a batch of consecutive samples of
// rowsPerSample rows each through the last Forward and returns the
// input gradient, valid until the record's next Backward. Parameter
// gradients wait for Commit, which reads grad and the Forward's
// buffers, so neither may change before it.
func (r *Record) Backward(grad *Mat, rowsPerSample int) *Mat {
	last := len(r.net.Layers) - 1
	for i := last; i >= 0; i-- {
		// Below the last layer, grad is the next layer's input
		// gradient, which no commit reads.
		r.tapes[i].ownGrad = i < last
		grad = r.net.Layers[i].backward(&r.tapes[i], grad, rowsPerSample)
	}
	return grad
}

// Commit accumulates the last Backward's parameter gradients into
// Param.G: per Dense layer, each sample's dW chain added in sample
// order, then the bias rows in row order.
func (r *Record) Commit() {
	for i, l := range r.net.Layers {
		l.commit(&r.tapes[i])
	}
}

func (s *Sequential) record() *Record {
	if s.own == nil {
		s.own = s.NewRecord()
	}
	return s.own
}

// Forward runs x through the network's own record; the result is valid
// until the next Forward.
func (s *Sequential) Forward(x *Mat) *Mat { return s.record().Forward(x) }

// Backward treats the whole batch as one sample: each Dense dW is one
// aᵀ·b chain over all rows, added to W.G.
func (s *Sequential) Backward(grad *Mat) *Mat { return s.BackwardRows(grad, max(grad.R, 1)) }

// BackwardRows backpropagates a batch of consecutive samples of
// rowsPerSample rows each through the network's own record and commits
// the parameter gradients. Dense layers segment their weight gradients
// per sample, exactly as if the samples had been backpropagated one by
// one; every other layer is row-wise, except Conv2D, whose weight
// gradient is one chain over every sample. The input gradient is valid
// until the next call.
func (s *Sequential) BackwardRows(grad *Mat, rowsPerSample int) *Mat {
	r := s.record()
	dx := r.Backward(grad, rowsPerSample)
	r.Commit()
	return dx
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

// Params returns every layer's parameters in layer order.
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
