package nn

import (
	"math"
	"testing"

	"impeccable/internal/xrand"
)

func TestConv2DKnownKernel(t *testing.T) {
	// 1 channel, 3×3 input, identity-ish kernel picking the center.
	r := xrand.New(1)
	c := NewConv2D(1, 3, 3, 1, 3, r)
	for i := range c.W.W.V {
		c.W.W.V[i] = 0
	}
	c.W.W.V[4] = 1 // center tap
	c.B.W.V[0] = 0.5
	x := FromRows([][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9}})
	y := NewSequential(c).Forward(x)
	if y.R != 1 || y.C != 1 {
		t.Fatalf("output shape %dx%d", y.R, y.C)
	}
	if y.V[0] != 5.5 {
		t.Fatalf("center-tap conv = %v, want 5.5", y.V[0])
	}
}

func TestConv2DGradient(t *testing.T) {
	r := xrand.New(2)
	conv := NewConv2D(2, 5, 5, 3, 3, r)
	net := NewSequential(conv)
	x := NewMat(2, 2*5*5)
	for i := range x.V {
		x.V[i] = r.NormFloat64()
	}
	numericalGrad(t, net, x, 1e-3)
}

func TestConvPoolDenseGradient(t *testing.T) {
	r := xrand.New(3)
	conv := NewConv2D(1, 6, 6, 2, 3, r) // -> 2×4×4
	pool := NewMaxPool2D(2, 4, 4, 2)    // -> 2×2×2
	net := NewSequential(conv, &ReLU{}, pool, NewDense(8, 1, r))
	x := NewMat(3, 36)
	for i := range x.V {
		x.V[i] = r.NormFloat64()
	}
	numericalGrad(t, net, x, 1e-3)
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2D(1, 4, 4, 2)
	x := FromRows([][]float64{{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}})
	y := NewSequential(p).Forward(x)
	want := []float64{6, 8, 14, 16}
	for i, v := range y.V {
		if v != want[i] {
			t.Fatalf("pool[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	net := NewSequential(NewMaxPool2D(1, 2, 2, 2))
	x := FromRows([][]float64{{1, 9, 3, 4}})
	net.Forward(x)
	g := net.Backward(FromRows([][]float64{{2}}))
	want := []float64{0, 2, 0, 0}
	for i, v := range g.V {
		if v != want[i] {
			t.Fatalf("pool grad[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestCNNLearnsPattern(t *testing.T) {
	// A CNN must learn to detect a bright 2×2 corner patch.
	r := xrand.New(4)
	conv := NewConv2D(1, 6, 6, 4, 3, r)
	pool := NewMaxPool2D(4, 4, 4, 2)
	net := NewSequential(conv, &ReLU{}, pool, NewDense(16, 1, r))
	n := 64
	x := NewMat(n, 36)
	y := NewMat(n, 1)
	for s := 0; s < n; s++ {
		row := x.Row(s)
		for i := range row {
			row[i] = r.Norm(0, 0.1)
		}
		if s%2 == 0 {
			row[0], row[1], row[6], row[7] = 2, 2, 2, 2
			y.Set(s, 0, 1)
		}
	}
	opt := NewAdam(0.01)
	var loss float64
	for e := 0; e < 200; e++ {
		net.ZeroGrad()
		pred := net.Forward(x)
		var grad *Mat
		loss, grad = MSELoss(pred, y)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if loss > 0.05 {
		t.Fatalf("CNN failed to learn corner pattern: loss %v", loss)
	}
}

func TestConvOutputDims(t *testing.T) {
	r := xrand.New(5)
	c := NewConv2D(3, 16, 16, 8, 3, r)
	if c.OutH() != 14 || c.OutW() != 14 || c.OutDim() != 8*14*14 {
		t.Fatalf("dims: %d %d %d", c.OutH(), c.OutW(), c.OutDim())
	}
	p := NewMaxPool2D(8, 14, 14, 2)
	if p.OutDim() != 8*7*7 {
		t.Fatalf("pool dim: %d", p.OutDim())
	}
}

func TestConvDeterministic(t *testing.T) {
	mk := func() float64 {
		r := xrand.New(6)
		c := NewConv2D(1, 5, 5, 2, 3, r)
		x := NewMat(1, 25)
		rr := xrand.New(7)
		for i := range x.V {
			x.V[i] = rr.NormFloat64()
		}
		out := NewSequential(c).Forward(x)
		var s float64
		for _, v := range out.V {
			s += v
		}
		return s
	}
	if a, b := mk(), mk(); a != b || math.IsNaN(a) {
		t.Fatalf("conv not deterministic: %v vs %v", a, b)
	}
}

func BenchmarkConvForward16(b *testing.B) {
	r := xrand.New(1)
	net := NewSequential(NewConv2D(3, 16, 16, 8, 3, r))
	x := NewMat(32, 3*16*16)
	for i := range x.V {
		x.V[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Forward(x)
	}
}
