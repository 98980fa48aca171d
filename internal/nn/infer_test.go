package nn

import (
	"strings"
	"testing"

	"impeccable/internal/xrand"
)

// directConvForward is the in-test executable spec for Conv2D.Forward:
// the original 6-deep scalar loop, accumulator seeded with the bias.
func directConvForward(c *Conv2D, x *Mat) *Mat {
	oh, ow := c.OutH(), c.OutW()
	out := NewMat(x.R, c.OutDim())
	for s := 0; s < x.R; s++ {
		in := x.Row(s)
		o := out.Row(s)
		for oc := 0; oc < c.OutC; oc++ {
			w := c.W.W.Row(oc)
			acc0 := c.B.W.V[oc]
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					acc := acc0
					wi := 0
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < c.K; ky++ {
							base := c.inIdx(ic, y+ky, xx)
							for kx := 0; kx < c.K; kx++ {
								acc += w[wi] * in[base+kx]
								wi++
							}
						}
					}
					o[c.outIdx(oc, y, xx)] = acc
				}
			}
		}
	}
	return out
}

// directConvBackward is the in-test spec for Conv2D.Backward: the direct
// scatter loop with full IEEE semantics (no zero-grad skip).
func directConvBackward(c *Conv2D, x, grad *Mat) (dW, dB, dx *Mat) {
	oh, ow := c.OutH(), c.OutW()
	dW = NewMat(c.W.G.R, c.W.G.C)
	dB = NewMat(1, c.OutC)
	dx = NewMat(x.R, x.C)
	for s := 0; s < x.R; s++ {
		in := x.Row(s)
		g := grad.Row(s)
		dIn := dx.Row(s)
		for oc := 0; oc < c.OutC; oc++ {
			w := c.W.W.Row(oc)
			dWr := dW.Row(oc)
			for y := 0; y < oh; y++ {
				for xx := 0; xx < ow; xx++ {
					gv := g[c.outIdx(oc, y, xx)]
					dB.V[oc] += gv
					wi := 0
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < c.K; ky++ {
							base := c.inIdx(ic, y+ky, xx)
							for kx := 0; kx < c.K; kx++ {
								dWr[wi] += gv * in[base+kx]
								dIn[base+kx] += gv * w[wi]
								wi++
							}
						}
					}
				}
			}
		}
	}
	return dW, dB, dx
}

// dB's direct loop above sums per (s, oc, p); the im2col path sums per
// (s, p, oc). For a single output channel the orders coincide exactly;
// with several channels each channel's chain still visits its terms in
// (s, p) order, so the chains are identical term-for-term.

func TestConv2DForwardMatchesDirect(t *testing.T) {
	r := xrand.New(5)
	for _, batch := range []int{1, 2, 5} {
		c := NewConv2D(3, 8, 8, 4, 3, r)
		x := NewMat(batch, 3*8*8)
		fillMixed(x, r)
		assertMatBits(t, "Conv2D forward", NewSequential(c).Forward(x), directConvForward(c, x))
	}
}

func TestConv2DBackwardMatchesDirect(t *testing.T) {
	r := xrand.New(6)
	c := NewConv2D(2, 7, 7, 3, 3, r)
	x := NewMat(4, 2*7*7)
	fillMixed(x, r)
	net := NewSequential(c)
	out := net.Forward(x)
	grad := NewMat(out.R, out.C)
	fillMixed(grad, r)
	// Sprinkle exact zeros to exercise the finite-guarded skip in dIn
	// and the reshaped-grad skip in dW.
	for i := 0; i < len(grad.V); i += 3 {
		grad.V[i] = 0
	}
	dx := net.Backward(grad)
	wantDW, wantDB, wantDx := directConvBackward(c, x, grad)
	assertMatBits(t, "Conv2D dW", c.W.G, wantDW)
	assertMatBits(t, "Conv2D dB", c.B.G, wantDB)
	assertMatBits(t, "Conv2D dx", dx, wantDx)
}

func TestConv2DBackwardShapeGuard(t *testing.T) {
	r := xrand.New(8)
	c := NewConv2D(1, 6, 6, 2, 3, r)
	x := NewMat(3, 36)
	net := NewSequential(c)
	net.Forward(x)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward accepted a grad from a different batch size")
		}
	}()
	net.Backward(NewMat(5, c.OutDim()))
}

func TestSequentialInferMatchesForwardMLP(t *testing.T) {
	r := xrand.New(9)
	net := NewSequential(
		NewDense(20, 16, r), &ReLU{},
		NewDense(16, 8, r), &LeakyReLU{Alpha: 0.1},
		NewDense(8, 4, r), &Tanh{},
		NewDense(4, 1, r), &Sigmoid{},
	)
	x := NewMat(7, 20)
	fillMixed(x, r)
	want := net.Forward(x)
	ar := GetArena()
	defer ar.Release()
	assertMatBits(t, "Sequential.Infer MLP", net.Infer(x, ar), want)
}

func TestSequentialInferMatchesForwardCNN(t *testing.T) {
	r := xrand.New(10)
	c1 := NewConv2D(2, 10, 10, 4, 3, r) // 4×8×8
	p1 := NewMaxPool2D(4, 8, 8, 2)      // 4×4×4
	net := NewSequential(
		c1, &ReLU{}, p1,
		NewDense(p1.OutDim(), 6, r), &ReLU{},
		NewDense(6, 1, r), &Sigmoid{},
	)
	x := NewMat(3, 2*10*10)
	fillMixed(x, r)
	want := net.Forward(x)
	ar := GetArena()
	defer ar.Release()
	assertMatBits(t, "Sequential.Infer CNN", net.Infer(x, ar), want)
}

// TestInferLeavesNoState verifies Infer does not disturb training state:
// a Forward/Backward pair after interleaved Infer calls behaves as if
// the Infer calls never happened.
func TestInferLeavesNoState(t *testing.T) {
	r := xrand.New(12)
	mk := func() *Sequential {
		rr := xrand.New(99)
		return NewSequential(NewDense(6, 5, rr), &ReLU{}, NewDense(5, 1, rr), &Sigmoid{})
	}
	netA, netB := mk(), mk()
	x := NewMat(4, 6)
	fillMixed(x, r)
	other := NewMat(9, 6)
	fillMixed(other, r)
	grad := NewMat(4, 1)
	fillMixed(grad, r)

	outA := netA.Forward(x)
	ar := GetArena()
	netA.Infer(other, ar) // interleaved inference on a different batch
	ar.Release()
	dxA := netA.Backward(grad)

	outB := netB.Forward(x)
	dxB := netB.Backward(grad)

	assertMatBits(t, "forward with interleaved Infer", outA, outB)
	assertMatBits(t, "backward with interleaved Infer", dxA, dxB)
	for i, p := range netA.Params() {
		assertMatBits(t, "grads with interleaved Infer", p.G, netB.Params()[i].G)
	}
}

// TestMaxPoolInterleavedBatchPanics is the regression for the stale
// argmax bug: Backward used whatever Forward ran last, so interleaving a
// different-size batch silently corrupted (or crashed on) the gradient.
// Now it must panic with a diagnosable message.
func TestMaxPoolInterleavedBatchPanics(t *testing.T) {
	r := xrand.New(13)
	m := NewSequential(NewMaxPool2D(2, 4, 4, 2))
	x4 := NewMat(4, 32)
	fillMixed(x4, r)
	out4 := m.Forward(x4)
	grad4 := NewMat(out4.R, out4.C)
	fillMixed(grad4, r)

	x2 := NewMat(2, 32)
	fillMixed(x2, r)
	m.Forward(x2) // interleaved batch invalidates argmax for grad4

	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("Backward accepted a grad whose batch does not match the last Forward")
		}
		msg, ok := rec.(string)
		if !ok || !strings.Contains(msg, "does not match last Forward") {
			t.Fatalf("panic message not diagnosable: %v", rec)
		}
	}()
	m.Backward(grad4)
}
