package nn

import (
	"fmt"

	"impeccable/internal/par"
	"impeccable/internal/xrand"
)

// Conv2D is a stride-1, valid-padding 2-D convolution over batched
// images. Batch rows are flattened (channels × height × width) tensors in
// channel-major order. It supports the small image-based ML1 variant (the
// paper's ResNet-50 downscaled to this substrate's 2-D depictions).
//
// Forward/Backward are implemented as im2col + matmul: each output
// position's receptive field is gathered into one row of a patch matrix,
// turning the 6-deep scalar loop into the blocked kernels of kernels.go.
// Both paths are bit-identical to the direct convolution: every output
// element is bias + Σ w·patch accumulated in (ic, ky, kx) weight order,
// and every gradient element keeps the direct loop's term order.
type Conv2D struct {
	InC, InH, InW int
	OutC, K       int // output channels, square kernel size

	W *Param // OutC × (InC·K·K)
	B *Param // 1 × OutC
}

// NewConv2D builds a convolution layer with He initialization.
func NewConv2D(inC, inH, inW, outC, k int, r *xrand.RNG) *Conv2D {
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW, OutC: outC, K: k,
		W: NewParam(outC, inC*k*k),
		B: NewParam(1, outC),
	}
	c.W.HeInit(r)
	return c
}

// OutH returns the output height.
func (c *Conv2D) OutH() int { return c.InH - c.K + 1 }

// OutW returns the output width.
func (c *Conv2D) OutW() int { return c.InW - c.K + 1 }

// OutDim returns the flattened output length per sample.
func (c *Conv2D) OutDim() int { return c.OutC * c.OutH() * c.OutW() }

// kdim returns the patch length: one receptive field, flattened in
// (ic, ky, kx) order to match the weight layout.
func (c *Conv2D) kdim() int { return c.InC * c.K * c.K }

func (c *Conv2D) inIdx(ch, y, x int) int  { return (ch*c.InH+y)*c.InW + x }
func (c *Conv2D) outIdx(ch, y, x int) int { return (ch*c.OutH()+y)*c.OutW() + x }

// im2colSample fills the patch rows for sample s: row (s·oh+y)·ow+xx
// holds that output position's receptive field. Rows are fully
// overwritten, so cols may hold arbitrary prior contents.
func (c *Conv2D) im2colSample(cols *Mat, in []float64, s int) {
	oh, ow := c.OutH(), c.OutW()
	for y := 0; y < oh; y++ {
		for xx := 0; xx < ow; xx++ {
			crow := cols.Row((s*oh+y)*ow + xx)
			wi := 0
			for ic := 0; ic < c.InC; ic++ {
				for ky := 0; ky < c.K; ky++ {
					base := c.inIdx(ic, y+ky, xx)
					copy(crow[wi:wi+c.K], in[base:base+c.K])
					wi += c.K
				}
			}
		}
	}
}

// forwardInto computes out = conv(x) through cols (both fully
// overwritten). Per sample it evaluates out_s = W·patchᵀ with the
// accumulator seeded by the bias — the exact chain the direct loop
// produced. A 4-position register block shares each weight load across
// four output positions; each position keeps its own accumulator.
func (c *Conv2D) forwardInto(out, cols, x *Mat) {
	oh, ow := c.OutH(), c.OutW()
	pos, kd := oh*ow, c.kdim()
	flops := int64(x.R) * int64(c.OutC) * int64(pos) * int64(kd)
	w := kernelWorkers(x.R, flops)
	par.For(w, func(i int) {
		lo, hi := span(x.R, w, i)
		for s := lo; s < hi; s++ {
			c.im2colSample(cols, x.Row(s), s)
			o := out.Row(s)
			for oc := 0; oc < c.OutC; oc++ {
				wrow := c.W.W.Row(oc)
				bias := c.B.W.V[oc]
				obase := oc * pos
				p := 0
				for ; p+4 <= pos; p += 4 {
					c0 := cols.Row(s*pos + p)
					c1 := cols.Row(s*pos + p + 1)
					c2 := cols.Row(s*pos + p + 2)
					c3 := cols.Row(s*pos + p + 3)
					s0, s1, s2, s3 := bias, bias, bias, bias
					for wi, wv := range wrow {
						s0 += wv * c0[wi]
						s1 += wv * c1[wi]
						s2 += wv * c2[wi]
						s3 += wv * c3[wi]
					}
					o[obase+p], o[obase+p+1], o[obase+p+2], o[obase+p+3] = s0, s1, s2, s3
				}
				for ; p < pos; p++ {
					crow := cols.Row(s*pos + p)
					acc := bias
					for wi, wv := range wrow {
						acc += wv * crow[wi]
					}
					o[obase+p] = acc
				}
			}
		}
	})
}

func (c *Conv2D) forward(t *tape, x *Mat) *Mat {
	t.x = x
	t.cols = Reuse(t.cols, x.R*c.OutH()*c.OutW(), c.kdim())
	t.out = Reuse(t.out, x.R, c.OutDim())
	c.forwardInto(t.out, t.cols, x)
	return t.out
}

// Infer implements Inferencer: forward's arithmetic with all scratch
// (patch matrix and output) drawn from the arena.
func (c *Conv2D) Infer(x *Mat, ar *Arena) *Mat {
	cols := ar.Mat(x.R*c.OutH()*c.OutW(), c.kdim())
	out := ar.Mat(x.R, c.OutDim())
	c.forwardInto(out, cols, x)
	return out
}

// backward reshapes grad for commit and scatters dx. The weight
// gradient is one chain over every sample and position, whatever the
// segmentation.
func (c *Conv2D) backward(t *tape, grad *Mat, _ int) *Mat {
	oh, ow := c.OutH(), c.OutW()
	pos := oh * ow
	if t.x == nil || grad.R != t.x.R || grad.C != c.OutDim() {
		panic(fmt.Sprintf("nn: Conv2D.Backward grad %dx%d does not match last Forward", grad.R, grad.C))
	}
	// Reshape grad to (s, position) rows × OutC columns so the k
	// dimension of aᵀ·b walks (s, p) in the direct loop's order.
	t.g2 = Reuse(t.g2, grad.R*pos, c.OutC)
	for s := 0; s < grad.R; s++ {
		g := grad.Row(s)
		for p := 0; p < pos; p++ {
			row := t.g2.Row(s*pos + p)
			for oc := 0; oc < c.OutC; oc++ {
				row[oc] = g[oc*pos+p]
			}
		}
	}
	// dIn: scatter grad·W back through the receptive fields. Kept in the
	// direct loop's oc-major order per sample; samples are independent
	// rows, so this parallelizes without changing any accumulator chain.
	// Zero grads are skipped only while the weights are all finite, so
	// 0·NaN and 0·±Inf still propagate.
	t.dx = Reuse(t.dx, t.x.R, t.x.C)
	clear(t.dx.V)
	skipZero := allFinite(c.W.W.V)
	flops := int64(grad.R) * int64(c.OutC) * int64(pos) * int64(c.kdim())
	w := kernelWorkers(grad.R, flops)
	par.For(w, func(i int) {
		lo, hi := span(grad.R, w, i)
		for s := lo; s < hi; s++ {
			g := grad.Row(s)
			dIn := t.dx.Row(s)
			for oc := 0; oc < c.OutC; oc++ {
				wrow := c.W.W.Row(oc)
				for y := 0; y < oh; y++ {
					for xx := 0; xx < ow; xx++ {
						gv := g[(oc*oh+y)*ow+xx]
						if skipZero && gv == 0 {
							continue
						}
						wi := 0
						for ic := 0; ic < c.InC; ic++ {
							for ky := 0; ky < c.K; ky++ {
								base := c.inIdx(ic, y+ky, xx)
								for kx := 0; kx < c.K; kx++ {
									dIn[base+kx] += gv * wrow[wi]
									wi++
								}
							}
						}
					}
				}
			}
		}
	})
	return t.dx
}

// commit adds dB, the column sums of the reshaped grad with rows in
// (s, p) order, and dW += gradᵀ·patches, accumulated term by term into
// W.G exactly as the direct loop did (reduction over (s, p) in order).
func (c *Conv2D) commit(t *tape) {
	for k := 0; k < t.g2.R; k++ {
		for oc, gv := range t.g2.Row(k) {
			c.B.G.V[oc] += gv
		}
	}
	matMulATBAccInto(c.W.G, t.g2, t.cols)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool2D is a non-overlapping 2-D max pool (window = stride = P).
type MaxPool2D struct {
	C, H, W, P int
	activation
}

// NewMaxPool2D builds a pool layer over C×H×W inputs.
func NewMaxPool2D(c, h, w, p int) *MaxPool2D {
	return &MaxPool2D{C: c, H: h, W: w, P: p}
}

// OutH returns pooled height.
func (m *MaxPool2D) OutH() int { return m.H / m.P }

// OutW returns pooled width.
func (m *MaxPool2D) OutW() int { return m.W / m.P }

// OutDim returns the flattened output length per sample.
func (m *MaxPool2D) OutDim() int { return m.C * m.OutH() * m.OutW() }

// poolSample pools one sample. When argmax is non-nil it records, per
// output element, the input index of the max for Backward's scatter.
func (m *MaxPool2D) poolSample(in, o []float64, argmax []int) {
	oh, ow := m.OutH(), m.OutW()
	for c := 0; c < m.C; c++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				best := -1
				bv := 0.0
				for py := 0; py < m.P; py++ {
					for px := 0; px < m.P; px++ {
						idx := (c*m.H+y*m.P+py)*m.W + xx*m.P + px
						if best < 0 || in[idx] > bv {
							best, bv = idx, in[idx]
						}
					}
				}
				oi := (c*oh+y)*ow + xx
				o[oi] = bv
				if argmax != nil {
					argmax[oi] = best
				}
			}
		}
	}
}

func (m *MaxPool2D) forward(t *tape, x *Mat) *Mat {
	t.x = x
	t.out = Reuse(t.out, x.R, m.OutDim())
	n := x.R * t.out.C
	if cap(t.argmax) < n {
		t.argmax = make([]int, n)
	}
	t.argmax = t.argmax[:n]
	for s := 0; s < x.R; s++ {
		m.poolSample(x.Row(s), t.out.Row(s), t.argmax[s*t.out.C:(s+1)*t.out.C])
	}
	return t.out
}

// Infer implements Inferencer: pools without recording argmax or
// touching layer state.
func (m *MaxPool2D) Infer(x *Mat, ar *Arena) *Mat {
	out := ar.Mat(x.R, m.OutDim())
	for s := 0; s < x.R; s++ {
		m.poolSample(x.Row(s), out.Row(s), nil)
	}
	return out
}

func (m *MaxPool2D) backward(t *tape, grad *Mat, _ int) *Mat {
	if grad.C != m.OutDim() || grad.R*grad.C != len(t.argmax) {
		panic(fmt.Sprintf(
			"nn: MaxPool2D.Backward grad %dx%d does not match last Forward (argmax for %d elements of dim %d); "+
				"running Forward on another batch between Forward and Backward is not supported",
			grad.R, grad.C, len(t.argmax)/max(m.OutDim(), 1), m.OutDim()))
	}
	t.dx = Reuse(t.dx, grad.R, t.x.C)
	clear(t.dx.V)
	for s := 0; s < grad.R; s++ {
		g := grad.Row(s)
		d := t.dx.Row(s)
		for oi, gv := range g {
			d[t.argmax[s*grad.C+oi]] += gv
		}
	}
	return t.dx
}
