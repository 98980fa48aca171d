package aae

// ref_test.go keeps the per-cloud 3D-AAE training loop that the chunked
// Model replaced, verbatim but for the receiver, as the executable
// specification TestTrainBatchBitIdenticalToReference holds the
// chunked path to: one PointNet forward and backward per cloud, and a
// critic phase that scores each fake, prior and penalty probe row on its
// own.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"impeccable/internal/geom"
	"impeccable/internal/nn"
	"impeccable/internal/xrand"
)

// refModel runs the per-cloud reference over a Model's layers,
// optimizers and RNG, adding the encoder backward cache the per-cloud
// loop keeps between encodeForward and encodeBackward.
type refModel struct {
	*Model

	// encoder backward cache
	lastPoints *nn.Mat
	lastArgmax []int
}

// normalize maps a cloud into network coordinates (centered, scaled).
func (m *refModel) normalize(cloud []geom.Vec3) *nn.Mat {
	ctr := geom.Centroid(cloud)
	x := nn.NewMat(len(cloud), 3)
	inv := 1 / m.cfg.CoordScale
	for i, p := range cloud {
		q := p.Sub(ctr).Scale(inv)
		row := x.Row(i)
		row[0], row[1], row[2] = q.X, q.Y, q.Z
	}
	return x
}

// encodeForward runs the PointNet encoder on one cloud, caching what
// encodeBackward needs. Returns the latent row vector (1×L).
func (m *refModel) encodeForward(cloud []geom.Vec3) *nn.Mat {
	x := m.normalize(cloud)
	h := m.pointNet.Forward(x) // N × F
	f := h.C
	pooled := nn.NewMat(1, f)
	argmax := make([]int, f)
	for j := 0; j < f; j++ {
		best, bi := h.At(0, j), 0
		for i := 1; i < h.R; i++ {
			if v := h.At(i, j); v > best {
				best, bi = v, i
			}
		}
		pooled.Set(0, j, best)
		argmax[j] = bi
	}
	m.lastPoints = h
	m.lastArgmax = argmax
	return m.head.Forward(pooled)
}

// encodeBackward backpropagates dL/dz through head, max-pool and the
// shared point MLP, accumulating parameter gradients.
func (m *refModel) encodeBackward(dz *nn.Mat) {
	dPool := m.head.Backward(dz) // 1 × F
	dH := nn.NewMat(m.lastPoints.R, m.lastPoints.C)
	for j := 0; j < dH.C; j++ {
		dH.Set(m.lastArgmax[j], j, dPool.At(0, j))
	}
	m.pointNet.Backward(dH)
}

// Encode returns the latent embedding of a cloud (no gradient state kept).
func (m *refModel) Encode(cloud []geom.Vec3) []float64 {
	z := m.encodeForward(cloud)
	out := make([]float64, z.C)
	copy(out, z.Row(0))
	return out
}

// EncodeBatch embeds many clouds.
func (m *refModel) EncodeBatch(clouds [][]geom.Vec3) [][]float64 {
	out := make([][]float64, len(clouds))
	for i, c := range clouds {
		out[i] = m.Encode(c)
	}
	return out
}

// TrainBatch performs one generator update and NCritic critic updates on
// the given clouds, returning mean losses.
func (m *refModel) TrainBatch(clouds [][]geom.Vec3) Losses {
	if len(clouds) == 0 {
		return Losses{}
	}
	b := float64(len(clouds))
	var losses Losses
	zFake := make([][]float64, len(clouds))

	// ---- Generator (encoder+decoder) phase ----
	m.zeroGenGrads()
	for ci, cloud := range clouds {
		z := m.encodeForward(cloud)
		zFake[ci] = append([]float64(nil), z.Row(0)...)

		rec := m.decode(z)
		refMat := m.normalize(cloud)
		ref := make([]geom.Vec3, refMat.R)
		for i := range ref {
			row := refMat.Row(i)
			ref[i] = geom.Vec3{X: row[0], Y: row[1], Z: row[2]}
		}
		recLoss, recGrad := refChamferGrad(rec, ref)
		losses.Recon += recLoss / b

		// Backprop reconstruction through the decoder.
		dOut := nn.NewMat(1, 3*m.cfg.NumPoints)
		s := m.cfg.ReconScale / b
		for i, g := range recGrad {
			dOut.Set(0, 3*i, g.X*s)
			dOut.Set(0, 3*i+1, g.Y*s)
			dOut.Set(0, 3*i+2, g.Z*s)
		}
		dzRec := m.decoder.Backward(dOut)

		// Adversarial term: encoder maximizes critic score on z.
		score := m.critic.Forward(z.Clone())
		losses.Adv += -score.At(0, 0) / b
		dScore := nn.NewMat(1, 1)
		dScore.Set(0, 0, -1/b)
		dzAdv := m.critic.Backward(dScore)

		dz := dzRec.Clone()
		dz.AddInPlace(dzAdv)
		m.encodeBackward(dz)
	}
	nn.ClipGrads(m.genP, 5)
	m.optG.Step(m.genP)
	// Discard critic gradients accumulated while routing the adversarial
	// signal into the encoder.
	for _, p := range m.critic.Params() {
		p.ZeroGrad()
	}

	// ---- Critic phase ----
	for it := 0; it < m.cfg.NCritic; it++ {
		for _, p := range m.critic.Params() {
			p.ZeroGrad()
		}
		var criticLoss float64
		for _, zf := range zFake {
			// Critic minimizes D(fake) - D(real): fake scores get
			// gradient +1/b, real -1/b.
			zm := nn.NewMat(1, m.cfg.LatentDim)
			copy(zm.Row(0), zf)
			s := m.critic.Forward(zm)
			criticLoss += s.At(0, 0) / b
			g := nn.NewMat(1, 1)
			g.Set(0, 0, 1/b)
			m.critic.Backward(g)

			zr := m.samplePrior()
			sr := m.critic.Forward(zr)
			criticLoss -= sr.At(0, 0) / b
			gr := nn.NewMat(1, 1)
			gr.Set(0, 0, -1/b)
			m.critic.Backward(gr)

			criticLoss += m.gradientPenalty(zf, zr)
		}
		losses.Critic = criticLoss
		m.optC.Step(m.critic.Params())
		nn.ClipWeights(m.critic.Params(), m.cfg.ClipC)
	}
	return losses
}

// refChamferGrad is the two-scan Chamfer loss and gradient that
// chamferGrad's single sweep must match bit for bit.
func refChamferGrad(rec, ref []geom.Vec3) (float64, []geom.Vec3) {
	grad := make([]geom.Vec3, len(rec))
	var loss float64
	nRec, nRef := float64(len(rec)), float64(len(ref))
	for i, rp := range rec {
		best, bi := math.Inf(1), 0
		for j, p := range ref {
			if d := rp.Dist2(p); d < best {
				best, bi = d, j
			}
		}
		loss += best / nRec
		grad[i] = grad[i].Add(rp.Sub(ref[bi]).Scale(2 / nRec))
	}
	for _, p := range ref {
		best, bi := math.Inf(1), 0
		for i, rp := range rec {
			if d := p.Dist2(rp); d < best {
				best, bi = d, i
			}
		}
		loss += best / nRef
		grad[bi] = grad[bi].Add(rec[bi].Sub(p).Scale(2 / nRef))
	}
	return loss, grad
}

// gradientPenalty applies the finite-difference directional penalty at an
// interpolate of (fake, real): ((D(ẑ+hu) − D(ẑ−hu))/2h − 1)², scaled by
// GPScale, accumulating the corresponding critic parameter gradients. It
// returns its contribution to the critic loss.
func (m *refModel) gradientPenalty(zFake []float64, zReal *nn.Mat) float64 {
	l := m.cfg.LatentDim
	eps := m.rng.Float64()
	zi := nn.NewMat(1, l)
	for k := 0; k < l; k++ {
		zi.Set(0, k, eps*zFake[k]+(1-eps)*zReal.At(0, k))
	}
	// Random unit direction.
	u := make([]float64, l)
	var norm float64
	for k := range u {
		u[k] = m.rng.NormFloat64()
		norm += u[k] * u[k]
	}
	norm = 1 / math.Max(1e-12, math.Sqrt(norm))
	const h = 1e-2
	zp := zi.Clone()
	zm := zi.Clone()
	for k := 0; k < l; k++ {
		zp.V[k] += h * u[k] * norm
		zm.V[k] -= h * u[k] * norm
	}
	sp := m.critic.Forward(zp).At(0, 0)
	sm := m.critic.Forward(zm).At(0, 0)
	g := (sp - sm) / (2 * h)
	pen := (g - 1) * (g - 1) * m.cfg.GPScale
	// d pen / d sp = 2(g-1)·GP / (2h); d pen / d sm = -that.
	dsp := 2 * (g - 1) * m.cfg.GPScale / (2 * h)
	// Re-run forwards so each Backward sees its own cached activations.
	m.critic.Forward(zp)
	gm := nn.NewMat(1, 1)
	gm.Set(0, 0, dsp)
	m.critic.Backward(gm)
	m.critic.Forward(zm)
	gm2 := nn.NewMat(1, 1)
	gm2.Set(0, 0, -dsp)
	m.critic.Backward(gm2)
	return pen
}

// samplePrior draws one latent sample from the N(0, σ²) prior.
func (m *refModel) samplePrior() *nn.Mat {
	z := nn.NewMat(1, m.cfg.LatentDim)
	for k := range z.V {
		z.V[k] = m.rng.Norm(0, m.cfg.PriorStd)
	}
	return z
}

// ValidationRecon returns the mean Chamfer reconstruction loss over a
// held-out set (the paper's validation loss metric).
func (m *refModel) ValidationRecon(clouds [][]geom.Vec3) float64 {
	if len(clouds) == 0 {
		return 0
	}
	var s float64
	for _, cloud := range clouds {
		z := m.encodeForward(cloud)
		rec := m.decode(z)
		refMat := m.normalize(cloud)
		ref := make([]geom.Vec3, refMat.R)
		for i := range ref {
			row := refMat.Row(i)
			ref[i] = geom.Vec3{X: row[0], Y: row[1], Z: row[2]}
		}
		s += Chamfer(rec, ref)
	}
	return s / float64(len(clouds))
}

// assertParamBits fails unless every weight and gradient of got matches
// want bit for bit (NaN payloads included).
func assertParamBits(t *testing.T, label string, got, want []*nn.Param) {
	t.Helper()
	for pi := range want {
		for _, pair := range [][2]*nn.Mat{{got[pi].W, want[pi].W}, {got[pi].G, want[pi].G}} {
			for i, v := range pair[1].V {
				if math.Float64bits(pair[0].V[i]) != math.Float64bits(v) {
					t.Fatalf("%s: param %d element %d = %v, reference %v", label, pi, i, pair[0].V[i], v)
				}
			}
		}
	}
}

func allParams(m *Model) []*nn.Param {
	return append(append([]*nn.Param(nil), m.genP...), m.critP...)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTrainBatchBitIdenticalToReference trains chunked Models and the
// per-cloud reference side by side on 309-point clouds — PLPro's Cα
// count — for every batch size and chunk size pairing, each on one to
// four lanes, and requires equal bits in every parameter and gradient
// after every batch, in every loss, in the embeddings and in the
// validation loss. Batch 7 in chunks of 2 on 3 lanes leaves a ragged
// last round. The last batch carries a cloud with a NaN coordinate, so
// the kernels' non-finite fallbacks are on the compared path too.
func TestTrainBatchBitIdenticalToReference(t *testing.T) {
	const points = 309
	nClouds, epochs := 17, 2
	if testing.Short() {
		// Still one partial batch of 16 and one full batch of 7.
		nClouds, epochs = 9, 1
	}
	// Enough procs for four lanes to run at once, whatever the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	r := xrand.New(5)
	clouds, _ := cloudFamily(r, nClouds, points)
	val, _ := cloudFamily(r, 3, points)
	nanCloud := append([]geom.Vec3(nil), clouds[0]...)
	nanCloud[17].Y = math.NaN()
	laneCounts := []int{1, 2, 3, 4}
	if raceEnabled {
		// The detector makes every lane count cost a minute; three lanes
		// are concurrent and leave a ragged last round.
		laneCounts = []int{3}
	}
	for _, batch := range []int{1, 7, 16} {
		// A chunk never exceeds the batch, so batch 1 has one chunking.
		for chunk := 1; chunk <= min(4, batch); chunk++ {
			cfg := DefaultConfig(points)
			cfg.Seed = uint64(batch*10 + chunk)
			ref := &refModel{Model: New(cfg)}
			models := make([]*Model, len(laneCounts)) // models[i] trains on laneCounts[i] lanes
			for i := range models {
				models[i] = New(cfg)
			}
			step := 0
			train := func(b [][]geom.Vec3) {
				want := ref.TrainBatch(b)
				for i, m := range models {
					label := fmt.Sprintf("batch %d chunk %d lanes %d step %d", batch, chunk, laneCounts[i], step)
					got := m.trainBatch(b, chunk, laneCounts[i])
					if !sameBits(got.Recon, want.Recon) || !sameBits(got.Critic, want.Critic) || !sameBits(got.Adv, want.Adv) {
						t.Fatalf("%s: losses %+v, reference %+v", label, got, want)
					}
					assertParamBits(t, label, allParams(m), allParams(ref.Model))
				}
				step++
			}
			for e := 0; e < epochs; e++ {
				for at := 0; at < nClouds; at += batch {
					// Rotate the order each epoch so chunks regroup.
					b := make([][]geom.Vec3, 0, batch)
					for i := at; i < min(at+batch, nClouds); i++ {
						b = append(b, clouds[(i+e*3)%nClouds])
					}
					train(b)
				}
			}
			all := append(append([][]geom.Vec3(nil), clouds...), val...)
			wantZ := ref.EncodeBatch(all)
			wantVal := ref.ValidationRecon(val)
			for i, m := range models {
				label := fmt.Sprintf("batch %d chunk %d lanes %d", batch, chunk, laneCounts[i])
				for ci, z := range m.EncodeBatch(all) {
					for j, v := range wantZ[ci] {
						if !sameBits(z[j], v) {
							t.Fatalf("%s: embedding %d[%d] = %v, reference %v", label, ci, j, z[j], v)
						}
					}
				}
				if got := m.ValidationRecon(val); !sameBits(got, wantVal) {
					t.Fatalf("%s: ValidationRecon %v, reference %v", label, got, wantVal)
				}
			}
			// Non-finite input: NaN flows through every kernel's
			// fallback and must poison exactly what it poisons per cloud.
			train(append([][]geom.Vec3{nanCloud}, clouds[1:min(batch, nClouds)]...))
			withNaN := [][]geom.Vec3{nanCloud, val[0]}
			wantVal = ref.ValidationRecon(withNaN)
			for i, m := range models {
				if got := m.ValidationRecon(withNaN); !sameBits(got, wantVal) {
					t.Fatalf("batch %d chunk %d lanes %d: ValidationRecon with NaN %v, reference %v", batch, chunk, laneCounts[i], got, wantVal)
				}
			}
		}
	}
}
