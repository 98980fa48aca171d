package aae

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"impeccable/internal/geom"
	"impeccable/internal/nn"
	"impeccable/internal/par"
	"impeccable/internal/xrand"
)

// Config holds the 3D-AAE hyperparameters; defaults follow §7.1.3.
type Config struct {
	NumPoints    int // points per cloud (309 Cα for PLPro)
	LatentDim    int // 64
	PointHidden1 int // per-point MLP widths
	PointHidden2 int
	DecHidden    int
	PriorStd     float64 // Gaussian prior σ (0.2)
	LR           float64 // RMSprop learning rate (1e-5 in the paper)
	ReconScale   float64 // reconstruction loss scale (0.5)
	GPScale      float64 // gradient-penalty scale (10)
	ClipC        float64 // critic weight-clip constant
	NCritic      int     // critic updates per generator update
	Seed         uint64
	CoordScale   float64 // coordinate normalization divisor (Å)
}

// DefaultConfig returns the paper's hyperparameters, with a learning rate
// raised from the paper's 1e-5 to 1e-4 because the CG substrate converges
// in far fewer samples than 100 k MD frames.
func DefaultConfig(numPoints int) Config {
	return Config{
		NumPoints:    numPoints,
		LatentDim:    64,
		PointHidden1: 64,
		PointHidden2: 128,
		DecHidden:    256,
		PriorStd:     0.2,
		LR:           1e-4,
		ReconScale:   0.5,
		GPScale:      10,
		ClipC:        0.05,
		NCritic:      1,
		Seed:         1,
		CoordScale:   12,
	}
}

// trainChunk is how many clouds TrainBatch, ValidationRecon and
// EncodeBatch stack into one (trainChunk·NumPoints)×3 pass through the
// shared point MLP. It is a memory bound, not a tuning knob: every lane
// owns its chunk's activations, gradients and scratch, about 3 MB per
// lane at two 309-point clouds, and S2 runs in every campaign, including
// the benchmark's restart-replay workload, whose whole process peaks
// near 40 MB on a 2-core Xeon.
const trainChunk = 2

// Model is the 3D adversarial autoencoder.
type Model struct {
	cfg Config

	pointNet *nn.Sequential // 3 → h1 → h2, shared per point
	head     *nn.Sequential // h2 → latent
	decoder  *nn.Sequential // latent → hidden → 3·NumPoints
	critic   *nn.Sequential // latent → hidden → 1 (Wasserstein score)

	genP, critP []*nn.Param // encoder+decoder and critic parameters

	optG nn.Optimizer // encoder+decoder
	optC nn.Optimizer // critic

	rng *xrand.RNG

	lanes []*lane   // per-goroutine chunk scratch, grown on demand
	order sequencer // admits generator-chunk commits in cloud order

	// Batch scratch, reused while its capacity allows.
	zFake  *nn.Mat   // the batch's latent rows
	zs     *nn.Mat   // critic inputs: fake, prior and two probes per row
	dCrit  *nn.Mat   // dL/dscore per critic input
	probeU []float64 // a penalty probe's random direction
}

// lane is one goroutine's share of a batch: activation records of its
// own through the shared networks, and the chunk scratch that stacks,
// pools and scores its clouds. Lanes only read the weights, so they run
// chunks concurrently. What one chunk adds to the parameter gradients
// and the losses waits in its lane until commit applies it in cloud
// order.
type lane struct {
	point, head, dec, critic *nn.Record

	x      *nn.Mat     // stacked normalized clouds, one point per row
	pooled *nn.Mat     // max-pooled point features, one cloud per row
	argmax []int       // per cloud and feature, the winning point
	dH     *nn.Mat     // max-pool scatter of dL/dpooled, zero between uses
	dOut   *nn.Mat     // dL/dreconstruction, one cloud per row
	dScore *nn.Mat     // dL/dcritic score, one cloud per row
	rec    []geom.Vec3 // reconstructions, NumPoints per cloud
	ref    []geom.Vec3 // normalized inputs, NumPoints per cloud
	grads  []geom.Vec3 // dChamfer/dreconstruction, NumPoints per cloud
	near   []float64   // chamferGrad scratch: per reference point, the
	nearAt []int       // nearest reconstruction point and its distance
	recon  []float64   // per-cloud Chamfer loss
	score  []float64   // per-cloud critic score
}

// resize returns s with length n, reallocating only when its capacity
// is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sequencer admits commits one at a time in cloud order: the commit of
// the chunk starting at cloud at waits until every earlier cloud has
// been committed.
type sequencer struct {
	mu   sync.Mutex
	cond sync.Cond
	next int // first cloud not yet committed
}

func (s *sequencer) reset() {
	s.cond.L = &s.mu
	s.next = 0
}

func (s *sequencer) wait(at int) {
	s.mu.Lock()
	for s.next != at {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func (s *sequencer) done(k int) {
	s.mu.Lock()
	s.next += k
	s.mu.Unlock()
	s.cond.Broadcast()
}

// New builds an untrained model.
func New(cfg Config) *Model {
	r := xrand.New(cfg.Seed)
	m := &Model{
		cfg: cfg,
		pointNet: nn.NewSequential(
			nn.NewDense(3, cfg.PointHidden1, r), &nn.ReLU{},
			nn.NewDense(cfg.PointHidden1, cfg.PointHidden2, r), &nn.ReLU{},
		),
		head: nn.NewSequential(
			nn.NewDense(cfg.PointHidden2, cfg.LatentDim, r),
		),
		decoder: nn.NewSequential(
			nn.NewDense(cfg.LatentDim, cfg.DecHidden, r), &nn.ReLU{},
			nn.NewDense(cfg.DecHidden, 3*cfg.NumPoints, r),
		),
		critic: nn.NewSequential(
			nn.NewDense(cfg.LatentDim, 64, r), &nn.LeakyReLU{Alpha: 0.2},
			nn.NewDense(64, 32, r), &nn.LeakyReLU{Alpha: 0.2},
			nn.NewDense(32, 1, r),
		),
		rng: r,
	}
	m.genP = append(append(m.pointNet.Params(), m.head.Params()...), m.decoder.Params()...)
	m.critP = m.critic.Params()
	m.optG = nn.NewRMSprop(cfg.LR)
	m.optC = nn.NewRMSprop(cfg.LR * 2)
	return m
}

// eachChunk splits clouds into chunks of chunk clouds and runs fn on
// every chunk, on up to lanes goroutines at once (par.For). Chunks are
// claimed in increasing order; fn gets the claiming lane, the chunk's
// first cloud index and its clouds. A cloud of the wrong size panics
// here, before any lane starts.
func (m *Model) eachChunk(clouds [][]geom.Vec3, chunk, lanes int, fn func(ln *lane, at int, part [][]geom.Vec3)) {
	for _, cloud := range clouds {
		if len(cloud) != m.cfg.NumPoints {
			panic(fmt.Sprintf("aae: cloud of %d points, model expects %d", len(cloud), m.cfg.NumPoints))
		}
	}
	n := (len(clouds) + chunk - 1) / chunk
	lanes = min(lanes, n)
	for len(m.lanes) < lanes {
		m.lanes = append(m.lanes, &lane{
			point: m.pointNet.NewRecord(), head: m.head.NewRecord(),
			dec: m.decoder.NewRecord(), critic: m.critic.NewRecord(),
		})
	}
	var next atomic.Int64
	par.For(lanes, func(l int) {
		for c := int(next.Add(1)) - 1; c < n; c = int(next.Add(1)) - 1 {
			at := c * chunk
			fn(m.lanes[l], at, clouds[at:min(at+chunk, len(clouds))])
		}
	})
}

// stack normalizes a chunk of clouds (centered, scaled) into the lane's
// stacked input, cloud c on rows [c·NumPoints, (c+1)·NumPoints).
func (m *Model) stack(ln *lane, clouds [][]geom.Vec3) *nn.Mat {
	n, k := m.cfg.NumPoints, len(clouds)
	ln.x = nn.Reuse(ln.x, k*n, 3)
	inv := 1 / m.cfg.CoordScale
	for c, cloud := range clouds {
		ctr := geom.Centroid(cloud)
		for i, p := range cloud {
			q := p.Sub(ctr).Scale(inv)
			row := ln.x.Row(c*n + i)
			row[0], row[1], row[2] = q.X, q.Y, q.Z
		}
	}
	return ln.x
}

// maxPool reduces the point features h (NumPoints rows per cloud) to one
// row per cloud, recording each maximum's point for unpool. The first
// maximum wins, and a NaN first element stays the maximum.
func (m *Model) maxPool(ln *lane, h *nn.Mat) *nn.Mat {
	n, f := m.cfg.NumPoints, h.C
	k := h.R / n
	ln.pooled = nn.Reuse(ln.pooled, k, f)
	ln.argmax = resize(ln.argmax, k*f)
	for c := 0; c < k; c++ {
		best := ln.pooled.Row(c)
		arg := ln.argmax[c*f : (c+1)*f]
		copy(best, h.Row(c*n))
		clear(arg)
		for i := 1; i < n; i++ {
			for j, v := range h.Row(c*n + i) {
				if v > best[j] {
					best[j], arg[j] = v, i
				}
			}
		}
	}
	return ln.pooled
}

// unpool scatters dL/dpooled (one row per cloud) onto the points that
// won the max-pool and backpropagates it through the lane's point-MLP
// record, one cloud per gradient segment. commit clears the scatter.
func (m *Model) unpool(ln *lane, dPool *nn.Mat) {
	n, f := m.cfg.NumPoints, dPool.C
	ln.dH = nn.Reuse(ln.dH, dPool.R*n, f)
	for c := 0; c < dPool.R; c++ {
		for j, i := range ln.argmax[c*f : (c+1)*f] {
			ln.dH.Set(c*n+i, j, dPool.At(c, j))
		}
	}
	ln.point.Backward(ln.dH, n)
}

// vecs reads 3·len(dst) coordinates (x, y, z per point) into dst.
func vecs(dst []geom.Vec3, v []float64) []geom.Vec3 {
	for i := range dst {
		dst[i] = geom.Vec3{X: v[3*i], Y: v[3*i+1], Z: v[3*i+2]}
	}
	return dst
}

// clouds returns cloud c's reconstruction (row c of the decoder output)
// and normalized input (its rows of the stack) as points, in the lane's
// scratch for c.
func (m *Model) clouds(ln *lane, out, x *nn.Mat, c int) (rec, ref []geom.Vec3) {
	n := m.cfg.NumPoints
	ln.rec = resize(ln.rec, x.R)
	ln.ref = resize(ln.ref, x.R)
	rec = vecs(ln.rec[c*n:(c+1)*n], out.Row(c))
	ref = vecs(ln.ref[c*n:(c+1)*n], x.V[3*c*n:3*(c+1)*n])
	return rec, ref
}

// encode embeds a chunk of clouds through the lane's records, returning
// one latent row per cloud and the stacked input, both valid until the
// lane's next chunk. Training and inference share this forward pass,
// so inference needs no buffers beyond the lane's.
func (m *Model) encode(ln *lane, clouds [][]geom.Vec3) (z, x *nn.Mat) {
	x = m.stack(ln, clouds)
	return ln.head.Forward(m.maxPool(ln, ln.point.Forward(x))), x
}

// Encode returns the latent embedding of a cloud (no gradient state kept).
func (m *Model) Encode(cloud []geom.Vec3) []float64 {
	return m.EncodeBatch([][]geom.Vec3{cloud})[0]
}

// EncodeBatch embeds many clouds, trainChunk at a time, on up to
// GOMAXPROCS lanes.
func (m *Model) EncodeBatch(clouds [][]geom.Vec3) [][]float64 {
	out := make([][]float64, len(clouds))
	m.eachChunk(clouds, trainChunk, runtime.GOMAXPROCS(0), func(ln *lane, at int, part [][]geom.Vec3) {
		z, _ := m.encode(ln, part)
		for c := range part {
			out[at+c] = append([]float64(nil), z.Row(c)...)
		}
	})
	return out
}

// decode maps a latent row (1×L) to reconstruction points in network
// coordinates.
func (m *Model) decode(z *nn.Mat) []geom.Vec3 {
	out := m.decoder.Forward(z)
	return vecs(make([]geom.Vec3, m.cfg.NumPoints), out.Row(0))
}

// Reconstruct decodes a latent vector into a point cloud in network
// coordinates (centered, scaled by 1/CoordScale).
func (m *Model) Reconstruct(z []float64) []geom.Vec3 {
	zm := nn.NewMat(1, len(z))
	copy(zm.Row(0), z)
	return m.decode(zm)
}

// Losses reports the per-batch training diagnostics the paper tracks
// ("training and validation loss metrics", §5.1.4).
type Losses struct {
	Recon  float64 // Chamfer reconstruction loss
	Critic float64 // Wasserstein critic loss (with penalty)
	Adv    float64 // adversarial (generator) loss
}

// TrainBatch performs one generator update and NCritic critic updates on
// the given clouds, returning mean losses.
//
// The generator phase runs trainChunk clouds at a time through one
// stacked forward and backward pass, on up to GOMAXPROCS lanes at once,
// and the critic phase runs the whole batch as one. Both are
// bit-identical to processing the clouds one by one, on any number of
// lanes: forward rows are independent, the weights do not change during
// the phase, and every parameter gradient and loss sum is applied by
// commit in cloud order, keeping its per-cloud summation order
// (nn.Record.Commit).
func (m *Model) TrainBatch(clouds [][]geom.Vec3) Losses {
	return m.trainBatch(clouds, trainChunk, runtime.GOMAXPROCS(0))
}

func (m *Model) trainBatch(clouds [][]geom.Vec3, chunk, lanes int) Losses {
	if len(clouds) == 0 {
		return Losses{}
	}
	b := float64(len(clouds))
	var losses Losses
	m.zFake = nn.Reuse(m.zFake, len(clouds), m.cfg.LatentDim)

	// ---- Generator (encoder+decoder) phase ----
	m.zeroGenGrads()
	m.order.reset()
	m.eachChunk(clouds, chunk, lanes, func(ln *lane, at int, part [][]geom.Vec3) {
		z := m.generatorChunk(ln, part, b)
		copy(m.zFake.V[at*z.C:], z.V)
		m.order.wait(at)
		m.commit(ln, b, &losses)
		m.order.done(len(part))
	})
	nn.ClipGrads(m.genP, 5)
	m.optG.Step(m.genP)
	// Routing the adversarial signal into the encoder needs only the
	// critic's input gradient, so the lanes never commit the critic's
	// parameter gradients; the critic phase starts them from zero.
	for _, p := range m.critP {
		p.ZeroGrad()
	}

	// ---- Critic phase ----
	for it := 0; it < m.cfg.NCritic; it++ {
		losses.Critic = m.criticStep(m.zFake, b)
	}
	return losses
}

// generatorChunk runs a chunk of clouds (b is the batch size the losses
// are averaged over) forward and back through the lane's records and
// returns the chunk's latent rows. It reads the weights and writes only
// the lane; commit applies what it leaves there.
func (m *Model) generatorChunk(ln *lane, clouds [][]geom.Vec3, b float64) *nn.Mat {
	n, k := m.cfg.NumPoints, len(clouds)
	z, x := m.encode(ln, clouds)

	// Backprop the Chamfer reconstruction loss through the decoder.
	out := ln.dec.Forward(z)
	ln.dOut = nn.Reuse(ln.dOut, k, 3*n)
	ln.grads = resize(ln.grads, k*n)
	ln.near, ln.nearAt = resize(ln.near, n), resize(ln.nearAt, n)
	ln.recon = resize(ln.recon, k)
	s := m.cfg.ReconScale / b
	for c := 0; c < k; c++ {
		rec, ref := m.clouds(ln, out, x, c)
		g := ln.grads[c*n : (c+1)*n]
		ln.recon[c] = chamferGrad(rec, ref, g, ln.near, ln.nearAt)
		row := ln.dOut.Row(c)
		for i, gv := range g {
			row[3*i], row[3*i+1], row[3*i+2] = gv.X*s, gv.Y*s, gv.Z*s
		}
	}
	dz := ln.dec.Backward(ln.dOut, 1)

	// Adversarial term: encoder maximizes critic score on z. Only the
	// critic's input gradient is needed; its parameter gradients would
	// be discarded, so the critic record is never committed.
	score := ln.critic.Forward(z)
	ln.dScore = nn.Reuse(ln.dScore, k, 1)
	ln.score = resize(ln.score, k)
	for c := 0; c < k; c++ {
		ln.score[c] = score.At(c, 0)
		ln.dScore.V[c] = -1 / b
	}
	dz.AddInPlace(ln.critic.Backward(ln.dScore, 1))

	m.unpool(ln, ln.head.Backward(dz, 1))
	return z
}

// commit applies a lane's chunk to the batch: its loss terms, then its
// parameter gradients, each in cloud order. Chunks commit in cloud
// order too (sequencer), so the sums match the one-by-one loop's.
func (m *Model) commit(ln *lane, b float64, losses *Losses) {
	for _, r := range ln.recon {
		losses.Recon += r / b
	}
	for _, sc := range ln.score {
		losses.Adv += -sc / b
	}
	ln.dec.Commit()
	ln.head.Commit()
	ln.point.Commit()
	n, f := m.cfg.NumPoints, ln.pooled.C
	for c := range ln.recon {
		for j, i := range ln.argmax[c*f : (c+1)*f] {
			ln.dH.Set(c*n+i, j, 0)
		}
	}
}

// criticStep performs one critic update against the batch's latent rows
// zFake, returning the critic loss. Each fake row is scored beside a
// prior sample and the two finite-difference probes of its gradient
// penalty, ((D(ẑ+hu) − D(ẑ−hu))/2h − 1)² · GPScale at an interpolate ẑ
// of (fake, prior) along a random unit direction u; all 4·len(zFake)
// rows go through one forward and one backward pass.
func (m *Model) criticStep(zFake *nn.Mat, b float64) float64 {
	const h = 1e-2
	l := m.cfg.LatentDim
	m.zs = nn.Reuse(m.zs, 4*zFake.R, l) // per fake row: fake, prior, ẑ+hu, ẑ−hu
	m.probeU = resize(m.probeU, l)
	zs, u := m.zs, m.probeU
	for c := 0; c < zFake.R; c++ {
		zf, zr := zFake.Row(c), zs.Row(4*c+1)
		copy(zs.Row(4*c), zf)
		for k := range zr {
			zr[k] = m.rng.Norm(0, m.cfg.PriorStd)
		}
		eps := m.rng.Float64()
		var norm float64
		for k := range u {
			u[k] = m.rng.NormFloat64()
			norm += u[k] * u[k]
		}
		norm = 1 / math.Max(1e-12, math.Sqrt(norm))
		zp, zm := zs.Row(4*c+2), zs.Row(4*c+3)
		for k := 0; k < l; k++ {
			zi := eps*zf[k] + (1-eps)*zr[k]
			zp[k] = zi + h*u[k]*norm
			zm[k] = zi - h*u[k]*norm
		}
	}
	for _, p := range m.critP {
		p.ZeroGrad()
	}
	// Critic minimizes D(fake) - D(real): fake scores get gradient +1/b,
	// real -1/b; d pen / d sp = 2(g-1)·GP / (2h), d pen / d sm = -that.
	scores := m.critic.Forward(zs)
	m.dCrit = nn.Reuse(m.dCrit, zs.R, 1)
	grad := m.dCrit
	var loss float64
	for c := 0; c < zFake.R; c++ {
		sf, sr, sp, sm := scores.V[4*c], scores.V[4*c+1], scores.V[4*c+2], scores.V[4*c+3]
		loss += sf / b
		loss -= sr / b
		g := (sp - sm) / (2 * h)
		loss += (g - 1) * (g - 1) * m.cfg.GPScale
		dsp := 2 * (g - 1) * m.cfg.GPScale / (2 * h)
		grad.V[4*c], grad.V[4*c+1], grad.V[4*c+2], grad.V[4*c+3] = 1/b, -1/b, dsp, -dsp
	}
	m.critic.BackwardRows(grad, 1)
	m.optC.Step(m.critP)
	nn.ClipWeights(m.critP, m.cfg.ClipC)
	return loss
}

func (m *Model) zeroGenGrads() {
	for _, p := range m.genP {
		p.ZeroGrad()
	}
}

// TrainEpochs trains for the given epochs over the clouds with the given
// batch size, returning the loss history (one entry per epoch, averaged
// over batches).
func (m *Model) TrainEpochs(clouds [][]geom.Vec3, epochs, batchSize int) []Losses {
	history := make([]Losses, 0, epochs)
	idx := make([]int, len(clouds))
	for i := range idx {
		idx[i] = i
	}
	batch := make([][]geom.Vec3, 0, batchSize)
	for e := 0; e < epochs; e++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var acc Losses
		nb := 0
		for at := 0; at < len(idx); at += batchSize {
			end := at + batchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch = batch[:0]
			for _, i := range idx[at:end] {
				batch = append(batch, clouds[i])
			}
			l := m.TrainBatch(batch)
			acc.Recon += l.Recon
			acc.Critic += l.Critic
			acc.Adv += l.Adv
			nb++
		}
		if nb > 0 {
			acc.Recon /= float64(nb)
			acc.Critic /= float64(nb)
			acc.Adv /= float64(nb)
		}
		history = append(history, acc)
	}
	return history
}

// ValidationRecon returns the mean Chamfer reconstruction loss over a
// held-out set (the paper's validation loss metric). Chunks run on up
// to GOMAXPROCS lanes; the per-cloud losses are summed in cloud order.
func (m *Model) ValidationRecon(clouds [][]geom.Vec3) float64 {
	if len(clouds) == 0 {
		return 0
	}
	recon := make([]float64, len(clouds))
	m.eachChunk(clouds, trainChunk, runtime.GOMAXPROCS(0), func(ln *lane, at int, part [][]geom.Vec3) {
		z, x := m.encode(ln, part)
		out := ln.dec.Forward(z)
		for c := range part {
			recon[at+c] = Chamfer(m.clouds(ln, out, x, c))
		}
	})
	var s float64
	for _, r := range recon {
		s += r
	}
	return s / float64(len(clouds))
}

// TrainFlops estimates FLOPs per training batch of the given size (Table
// 3 methodology: flops per batch, forward+backward ≈ 3× forward, per
// cloud the point MLP runs NumPoints times).
func (m *Model) TrainFlops(batch int) int64 {
	perCloud := m.pointNet.ForwardFlops(m.cfg.NumPoints) +
		m.head.ForwardFlops(1) + m.decoder.ForwardFlops(1) + m.critic.ForwardFlops(1)
	chamfer := int64(m.cfg.NumPoints) * int64(m.cfg.NumPoints) * 8 * 2
	return int64(batch) * (3*perCloud + chamfer)
}
