package nn

import (
	"math"
	"testing"

	"impeccable/internal/xrand"
)

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	r := xrand.New(1)
	a := NewMat(4, 6)
	b := NewMat(4, 5)
	for i := range a.V {
		a.V[i] = r.NormFloat64()
	}
	for i := range b.V {
		b.V[i] = r.NormFloat64()
	}
	// aᵀ·b via MatMulATB vs explicit transpose multiply.
	at := NewMat(a.C, a.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	got := MatMulATB(a, b)
	want := MatMul(at, b)
	for i := range got.V {
		if math.Abs(got.V[i]-want.V[i]) > 1e-12 {
			t.Fatalf("ATB mismatch at %d", i)
		}
	}
	// a·bᵀ via MatMulABT.
	c := NewMat(6, 5)
	for i := range c.V {
		c.V[i] = r.NormFloat64()
	}
	ct := NewMat(c.C, c.R)
	for i := 0; i < c.R; i++ {
		for j := 0; j < c.C; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	got2 := MatMulABT(a, ct) // a(4x6)·ctᵀ(6x5)... ct is 5x6, ctᵀ is 6x5
	want2 := MatMul(a, c)
	for i := range got2.V {
		if math.Abs(got2.V[i]-want2.V[i]) > 1e-12 {
			t.Fatalf("ABT mismatch at %d", i)
		}
	}
}

func TestMatMulPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MatMul(NewMat(2, 3), NewMat(2, 3))
}

// numericalGrad checks analytic layer gradients against finite differences
// through a scalar loss L = Σ out².
func numericalGrad(t *testing.T, net *Sequential, x *Mat, tol float64) {
	t.Helper()
	lossOf := func() float64 {
		out := net.Forward(x.Clone())
		var s float64
		for _, v := range out.V {
			s += v * v
		}
		return s
	}
	net.ZeroGrad()
	out := net.Forward(x.Clone())
	grad := out.Clone()
	grad.ScaleInPlace(2)
	net.Backward(grad)
	const h = 1e-6
	for pi, p := range net.Params() {
		for i := 0; i < len(p.W.V); i += 7 { // spot-check a subset
			orig := p.W.V[i]
			p.W.V[i] = orig + h
			lp := lossOf()
			p.W.V[i] = orig - h
			lm := lossOf()
			p.W.V[i] = orig
			fd := (lp - lm) / (2 * h)
			if math.Abs(fd-p.G.V[i]) > tol*(1+math.Abs(fd)) {
				t.Fatalf("param %d elem %d: analytic %v, numeric %v", pi, i, p.G.V[i], fd)
			}
		}
	}
}

func TestDenseGradient(t *testing.T) {
	r := xrand.New(2)
	net := NewSequential(NewDense(5, 4, r))
	x := NewMat(3, 5)
	for i := range x.V {
		x.V[i] = r.NormFloat64()
	}
	numericalGrad(t, net, x, 1e-4)
}

func TestMLPGradient(t *testing.T) {
	r := xrand.New(3)
	net := NewSequential(
		NewDense(6, 8, r), &Tanh{},
		NewDense(8, 5, r), &Sigmoid{},
		NewDense(5, 2, r),
	)
	x := NewMat(4, 6)
	for i := range x.V {
		x.V[i] = r.NormFloat64()
	}
	numericalGrad(t, net, x, 1e-3)
}

func TestLeakyReLUGradient(t *testing.T) {
	r := xrand.New(4)
	net := NewSequential(NewDense(4, 6, r), &LeakyReLU{Alpha: 0.2}, NewDense(6, 1, r))
	x := NewMat(5, 4)
	for i := range x.V {
		x.V[i] = r.NormFloat64() + 0.05 // keep away from the kink
	}
	numericalGrad(t, net, x, 1e-3)
}

func TestReLUForwardBackward(t *testing.T) {
	a := NewSequential(&ReLU{})
	x := FromRows([][]float64{{-1, 2, -3, 4}})
	y := a.Forward(x)
	want := []float64{0, 2, 0, 4}
	for i, v := range y.V {
		if v != want[i] {
			t.Fatalf("relu fwd[%d] = %v", i, v)
		}
	}
	g := a.Backward(FromRows([][]float64{{1, 1, 1, 1}}))
	wantG := []float64{0, 1, 0, 1}
	for i, v := range g.V {
		if v != wantG[i] {
			t.Fatalf("relu bwd[%d] = %v", i, v)
		}
	}
}

func TestTrainXORWithAdam(t *testing.T) {
	// End-to-end learning sanity: a 2-layer MLP must fit XOR.
	r := xrand.New(5)
	net := NewSequential(NewDense(2, 8, r), &Tanh{}, NewDense(8, 1, r))
	x := FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := FromRows([][]float64{{0}, {1}, {1}, {0}})
	opt := NewAdam(0.05)
	var loss float64
	for epoch := 0; epoch < 800; epoch++ {
		net.ZeroGrad()
		pred := net.Forward(x)
		var grad *Mat
		loss, grad = MSELoss(pred, y)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if loss > 0.02 {
		t.Fatalf("XOR not learned, final loss %v", loss)
	}
}

func TestTrainRegressionWithEachOptimizer(t *testing.T) {
	// y = 2x1 - 3x2 + 1: every optimizer must reduce loss substantially.
	r := xrand.New(6)
	x := NewMat(64, 2)
	y := NewMat(64, 1)
	for i := 0; i < 64; i++ {
		a, b := r.NormFloat64(), r.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, 2*a-3*b+1)
	}
	opts := map[string]Optimizer{
		"sgd":      NewSGD(0.05, 0.9),
		"adam":     NewAdam(0.02),
		"rmsprop":  NewRMSprop(0.01),
		"adadelta": NewAdaDelta(),
	}
	for name, opt := range opts {
		net := NewSequential(NewDense(2, 16, xrand.New(7)), &ReLU{}, NewDense(16, 1, xrand.New(8)))
		var first, last float64
		for epoch := 0; epoch < 300; epoch++ {
			net.ZeroGrad()
			pred := net.Forward(x)
			loss, grad := MSELoss(pred, y)
			if epoch == 0 {
				first = loss
			}
			last = loss
			net.Backward(grad)
			opt.Step(net.Params())
		}
		if last > first*0.2 {
			t.Errorf("%s: loss %v -> %v, insufficient progress", name, first, last)
		}
	}
}

func TestMSELossGradient(t *testing.T) {
	pred := FromRows([][]float64{{1, 2}})
	target := FromRows([][]float64{{0, 4}})
	loss, grad := MSELoss(pred, target)
	if math.Abs(loss-(1+4)/2.0) > 1e-12 {
		t.Fatalf("loss = %v", loss)
	}
	if math.Abs(grad.V[0]-1) > 1e-12 || math.Abs(grad.V[1]-(-2)) > 1e-12 {
		t.Fatalf("grad = %v", grad.V)
	}
}

func TestHuberMatchesMSEInCore(t *testing.T) {
	pred := FromRows([][]float64{{0.5}})
	target := FromRows([][]float64{{0}})
	h, _ := HuberLoss(pred, target, 1)
	if math.Abs(h-0.125) > 1e-12 {
		t.Fatalf("huber = %v, want 0.125", h)
	}
	// Far from target the loss grows linearly.
	pred2 := FromRows([][]float64{{10}})
	h2, g2 := HuberLoss(pred2, target, 1)
	if math.Abs(h2-(10-0.5)) > 1e-12 {
		t.Fatalf("huber tail = %v", h2)
	}
	if math.Abs(g2.V[0]-1) > 1e-12 {
		t.Fatalf("huber tail grad = %v", g2.V[0])
	}
}

func TestBCEWithLogits(t *testing.T) {
	logits := FromRows([][]float64{{0}})
	target := FromRows([][]float64{{1}})
	loss, grad := BCEWithLogits(logits, target)
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("bce = %v, want ln2", loss)
	}
	if math.Abs(grad.V[0]-(-0.5)) > 1e-12 {
		t.Fatalf("bce grad = %v, want -0.5", grad.V[0])
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParam(1, 3)
	p.G.V[0], p.G.V[1], p.G.V[2] = 3, 4, 0 // norm 5
	ClipGrads([]*Param{p}, 1)
	var norm float64
	for _, g := range p.G.V {
		norm += g * g
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-12 {
		t.Fatalf("clipped norm = %v", math.Sqrt(norm))
	}
}

func TestClipWeights(t *testing.T) {
	p := NewParam(1, 3)
	p.W.V[0], p.W.V[1], p.W.V[2] = -5, 0.005, 5
	ClipWeights([]*Param{p}, 0.01)
	if p.W.V[0] != -0.01 || p.W.V[1] != 0.005 || p.W.V[2] != 0.01 {
		t.Fatalf("clipped weights = %v", p.W.V)
	}
}

func TestNumParamsAndFlops(t *testing.T) {
	r := xrand.New(9)
	net := NewSequential(NewDense(10, 20, r), &ReLU{}, NewDense(20, 1, r))
	if got := net.NumParams(); got != 10*20+20+20*1+1 {
		t.Fatalf("NumParams = %d", got)
	}
	if got := net.ForwardFlops(2); got != int64(2*(2*10*20+2*20*1)) {
		t.Fatalf("ForwardFlops = %d", got)
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() float64 {
		r := xrand.New(11)
		net := NewSequential(NewDense(3, 5, r), &Tanh{}, NewDense(5, 1, r))
		x := NewMat(8, 3)
		y := NewMat(8, 1)
		rr := xrand.New(12)
		for i := range x.V {
			x.V[i] = rr.NormFloat64()
		}
		for i := range y.V {
			y.V[i] = rr.NormFloat64()
		}
		opt := NewAdam(0.01)
		var loss float64
		for e := 0; e < 50; e++ {
			net.ZeroGrad()
			pred := net.Forward(x)
			var grad *Mat
			loss, grad = MSELoss(pred, y)
			net.Backward(grad)
			opt.Step(net.Params())
		}
		return loss
	}
	if build() != build() {
		t.Fatal("training not deterministic")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := xrand.New(1)
	a := NewMat(64, 64)
	c := NewMat(64, 64)
	for i := range a.V {
		a.V[i] = r.NormFloat64()
		c.V[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, c)
	}
}

func BenchmarkMLPForward(b *testing.B) {
	r := xrand.New(1)
	net := NewSequential(NewDense(264, 128, r), &ReLU{}, NewDense(128, 64, r), &ReLU{}, NewDense(64, 1, r))
	x := NewMat(256, 264)
	for i := range x.V {
		x.V[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Forward(x)
	}
}

// TestRecordsCommittedInOrderMatchOneRecord splits a stack of samples
// over three records that run forward and backward concurrently, then
// commits them in sample order: every parameter gradient, output and
// input gradient must match one record running the whole stack.
func TestRecordsCommittedInOrderMatchOneRecord(t *testing.T) {
	const rows, perRecord, records = 3, 2, 3 // samples of 3 rows, 2 per record
	build := func() *Sequential {
		r := xrand.New(21)
		return NewSequential(NewDense(4, 6, r), &ReLU{}, NewDense(6, 5, r), &Tanh{})
	}
	r := xrand.New(22)
	x := NewMat(rows*perRecord*records, 4)
	grad := NewMat(x.R, 5)
	fillMixed(x, r)
	fillMixed(grad, r)

	whole := build()
	wantOut := whole.Forward(x).Clone()
	wantDx := whole.BackwardRows(grad, rows).Clone()

	split := build()
	recs := make([]*Record, records)
	outs, dxs := make([]*Mat, records), make([]*Mat, records)
	done := make(chan int)
	for i := range recs {
		recs[i] = split.NewRecord()
		go func() {
			lo, hi := i*rows*perRecord, (i+1)*rows*perRecord
			outs[i] = recs[i].Forward(x.Rows(lo, hi))
			dxs[i] = recs[i].Backward(grad.Rows(lo, hi), rows)
			done <- i
		}()
	}
	for range recs {
		<-done
	}
	for i, rec := range recs {
		rec.Commit()
		lo, hi := i*rows*perRecord, (i+1)*rows*perRecord
		assertMatBits(t, "record output", outs[i], wantOut.Rows(lo, hi))
		assertMatBits(t, "record input gradient", dxs[i], wantDx.Rows(lo, hi))
	}
	for i, p := range split.Params() {
		assertMatBits(t, "parameter gradient", p.G, whole.Params()[i].G)
	}
}
