package aae

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"impeccable/internal/geom"
	"impeccable/internal/xrand"
)

func TestChamferAxioms(t *testing.T) {
	r := xrand.New(1)
	a := randomCloud(r, 20, 0)
	if got := Chamfer(a, a); got != 0 {
		t.Fatalf("Chamfer(x,x) = %v", got)
	}
	b := randomCloud(r, 20, 5)
	ab, ba := Chamfer(a, b), Chamfer(b, a)
	if math.Abs(ab-ba) > 1e-12 {
		t.Fatalf("Chamfer not symmetric: %v vs %v", ab, ba)
	}
	if ab <= 0 {
		t.Fatalf("Chamfer of distinct clouds = %v", ab)
	}
	// Translation grows the distance.
	c := make([]geom.Vec3, len(a))
	for i := range c {
		c[i] = a[i].Add(geom.Vec3{X: 10})
	}
	if Chamfer(a, c) <= Chamfer(a, b)*0 {
		t.Fatal("translated cloud should have positive distance")
	}
}

func TestChamferEmpty(t *testing.T) {
	if got := Chamfer(nil, nil); got != 0 {
		t.Fatalf("Chamfer(∅,∅) = %v", got)
	}
	if got := Chamfer(nil, []geom.Vec3{{}}); !math.IsInf(got, 1) {
		t.Fatalf("Chamfer(∅,x) = %v", got)
	}
}

// chamferOf runs chamferGrad with fresh scratch.
func chamferOf(rec, ref []geom.Vec3) (float64, []geom.Vec3) {
	grad := make([]geom.Vec3, len(rec))
	loss := chamferGrad(rec, ref, grad, make([]float64, len(ref)), make([]int, len(ref)))
	return loss, grad
}

// TestChamferGradMatchesTwoScans: the single sweep gives the two-scan
// reference's bits, on clouds full of duplicated points (so nearest
// neighbours tie) and with a NaN coordinate.
func TestChamferGradMatchesTwoScans(t *testing.T) {
	r := xrand.New(3)
	lattice := func(n int, dx float64) []geom.Vec3 {
		c := make([]geom.Vec3, n)
		for i := range c {
			c[i] = geom.Vec3{X: float64(r.Intn(3)) + dx, Y: float64(r.Intn(2)), Z: float64(r.Intn(2))}
		}
		return c
	}
	// Half a step apart, so each point has equidistant nearest
	// neighbours on the other lattice and the tie order shows in the
	// gradient.
	rec, ref := lattice(40, 0), lattice(30, 0.5)
	for _, poison := range []bool{false, true} {
		if poison {
			rec[7].Y = math.NaN()
		}
		gotLoss, got := chamferOf(rec, ref)
		wantLoss, want := refChamferGrad(rec, ref)
		if !sameBits(gotLoss, wantLoss) {
			t.Fatalf("NaN %v: loss %v, two scans %v", poison, gotLoss, wantLoss)
		}
		for i := range want {
			g, w := got[i], want[i]
			if !sameBits(g.X, w.X) || !sameBits(g.Y, w.Y) || !sameBits(g.Z, w.Z) {
				t.Fatalf("NaN %v: grad[%d] = %v, two scans %v", poison, i, g, w)
			}
		}
	}
}

func TestChamferGradMatchesFiniteDifference(t *testing.T) {
	r := xrand.New(2)
	rec := randomCloud(r, 8, 0)
	ref := randomCloud(r, 8, 0.5)
	_, grad := chamferOf(rec, ref)
	const h = 1e-6
	for i := 0; i < len(rec); i++ {
		for axis := 0; axis < 3; axis++ {
			bump := geom.Vec3{}
			switch axis {
			case 0:
				bump.X = h
			case 1:
				bump.Y = h
			case 2:
				bump.Z = h
			}
			rp := append([]geom.Vec3(nil), rec...)
			rp[i] = rp[i].Add(bump)
			lp, _ := chamferOf(rp, ref)
			rm := append([]geom.Vec3(nil), rec...)
			rm[i] = rm[i].Sub(bump)
			lm, _ := chamferOf(rm, ref)
			fd := (lp - lm) / (2 * h)
			var got float64
			switch axis {
			case 0:
				got = grad[i].X
			case 1:
				got = grad[i].Y
			case 2:
				got = grad[i].Z
			}
			if math.Abs(fd-got) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("point %d axis %d: grad %v, fd %v", i, axis, got, fd)
			}
		}
	}
}

func randomCloud(r *xrand.RNG, n int, shift float64) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: r.NormFloat64() + shift,
			Y: r.NormFloat64() + shift,
			Z: r.NormFloat64() + shift,
		}
	}
	return pts
}

// cloudFamily generates structured clouds: a base shape plus per-cloud
// deformation along a single mode, so the latent space has something to
// learn.
func cloudFamily(r *xrand.RNG, n, points int) ([][]geom.Vec3, []float64) {
	base := randomCloud(r, points, 0)
	mode := randomCloud(r, points, 0)
	clouds := make([][]geom.Vec3, n)
	amps := make([]float64, n)
	for c := 0; c < n; c++ {
		amp := r.Range(-1, 1)
		amps[c] = amp
		cl := make([]geom.Vec3, points)
		for i := range cl {
			cl[i] = base[i].Add(mode[i].Scale(amp * 0.5)).
				Add(geom.Vec3{X: r.Norm(0, 0.02), Y: r.Norm(0, 0.02), Z: r.Norm(0, 0.02)})
		}
		clouds[c] = cl
	}
	return clouds, amps
}

func TestEncodeShape(t *testing.T) {
	cfg := DefaultConfig(16)
	m := New(cfg)
	r := xrand.New(3)
	z := m.Encode(randomCloud(r, 16, 0))
	if len(z) != cfg.LatentDim {
		t.Fatalf("latent dim = %d", len(z))
	}
	for _, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite latent: %v", z)
		}
	}
}

func TestEncodeTranslationInvariant(t *testing.T) {
	// Clouds are centered before encoding, so a rigid translation must
	// not change the embedding.
	cfg := DefaultConfig(16)
	m := New(cfg)
	r := xrand.New(4)
	cloud := randomCloud(r, 16, 0)
	shifted := make([]geom.Vec3, len(cloud))
	for i := range cloud {
		shifted[i] = cloud[i].Add(geom.Vec3{X: 7, Y: -3, Z: 2})
	}
	a, b := m.Encode(cloud), m.Encode(shifted)
	for k := range a {
		if math.Abs(a[k]-b[k]) > 1e-9 {
			t.Fatalf("translation changed embedding at dim %d: %v vs %v", k, a[k], b[k])
		}
	}
}

func TestTrainingReducesReconLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	cfg := DefaultConfig(16)
	cfg.LatentDim = 8
	cfg.LR = 3e-4
	m := New(cfg)
	r := xrand.New(5)
	clouds, _ := cloudFamily(r, 60, 16)
	hist := m.TrainEpochs(clouds, 25, 16)
	first, last := hist[0].Recon, hist[len(hist)-1].Recon
	if last >= first*0.8 {
		t.Fatalf("reconstruction loss did not improve: %v -> %v", first, last)
	}
	t.Logf("recon loss %v -> %v over %d epochs", first, last, len(hist))
}

func TestLatentTracksStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	// After training on a one-mode family, the latent embedding must
	// separate extreme deformations: correlation between the deformation
	// amplitude and the first principal latent direction should be
	// strong.
	cfg := DefaultConfig(16)
	cfg.LatentDim = 8
	cfg.LR = 3e-4
	m := New(cfg)
	r := xrand.New(6)
	clouds, amps := cloudFamily(r, 80, 16)
	m.TrainEpochs(clouds, 20, 16)
	zs := m.EncodeBatch(clouds)
	// Find the latent dim with max |corr| to amplitude.
	bestCorr := 0.0
	for d := 0; d < cfg.LatentDim; d++ {
		col := make([]float64, len(zs))
		for i := range zs {
			col[i] = zs[i][d]
		}
		if c := math.Abs(pearson(col, amps)); c > bestCorr {
			bestCorr = c
		}
	}
	if bestCorr < 0.5 {
		t.Fatalf("no latent dimension tracks the deformation mode (best |corr| = %v)", bestCorr)
	}
	t.Logf("best |corr(latent, amplitude)| = %.3f", bestCorr)
}

func TestValidationRecon(t *testing.T) {
	cfg := DefaultConfig(12)
	m := New(cfg)
	r := xrand.New(7)
	clouds, _ := cloudFamily(r, 20, 12)
	v := m.ValidationRecon(clouds)
	if v <= 0 || math.IsNaN(v) {
		t.Fatalf("validation recon = %v", v)
	}
	if got := m.ValidationRecon(nil); got != 0 {
		t.Fatalf("empty validation = %v", got)
	}
}

func TestCriticWeightsClipped(t *testing.T) {
	cfg := DefaultConfig(12)
	m := New(cfg)
	r := xrand.New(8)
	clouds, _ := cloudFamily(r, 16, 12)
	m.TrainEpochs(clouds, 3, 8)
	for _, p := range m.critic.Params() {
		for _, w := range p.W.V {
			if math.Abs(w) > cfg.ClipC+1e-12 {
				t.Fatalf("critic weight %v exceeds clip %v", w, cfg.ClipC)
			}
		}
	}
}

func TestReconstructShape(t *testing.T) {
	cfg := DefaultConfig(16)
	m := New(cfg)
	z := make([]float64, cfg.LatentDim)
	rec := m.Reconstruct(z)
	if len(rec) != cfg.NumPoints {
		t.Fatalf("reconstruction has %d points", len(rec))
	}
}

func TestTrainFlopsPositive(t *testing.T) {
	m := New(DefaultConfig(309))
	if m.TrainFlops(64) <= 0 {
		t.Fatal("TrainFlops must be positive")
	}
}

func TestTrainBatchEmpty(t *testing.T) {
	m := New(DefaultConfig(8))
	if l := m.TrainBatch(nil); l != (Losses{}) {
		t.Fatalf("empty batch losses = %+v", l)
	}
}

func pearson(a, b []float64) float64 {
	var sx, sy, sxx, syy, sxy float64
	n := float64(len(a))
	for i := range a {
		sx += a[i]
		sy += b[i]
		sxx += a[i] * a[i]
		syy += b[i] * b[i]
		sxy += a[i] * b[i]
	}
	den := math.Sqrt((sxx/n - sx/n*sx/n) * (syy/n - sy/n*sy/n))
	if den == 0 {
		return 0
	}
	return (sxy/n - sx/n*sy/n) / den
}

func BenchmarkEncode309(b *testing.B) {
	m := New(DefaultConfig(309))
	cloud := randomCloud(xrand.New(1), 309, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Encode(cloud)
	}
}

func BenchmarkTrainBatch(b *testing.B) {
	m := New(DefaultConfig(64))
	clouds, _ := cloudFamily(xrand.New(1), 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.TrainBatch(clouds)
	}
}

// BenchmarkTrainBatch309 is S2's production shape: PLPro's 309 Cα
// points and a batch of 16 clouds.
func BenchmarkTrainBatch309(b *testing.B) {
	m := New(DefaultConfig(309))
	clouds, _ := cloudFamily(xrand.New(1), 16, 309)
	m.TrainBatch(clouds)
	b.ReportAllocs()
	for b.Loop() {
		m.TrainBatch(clouds)
	}
}

// TestLanesMatchOneLane trains small models on one lane and on four
// concurrent lanes (nine clouds in chunks of two: a ragged last round)
// and requires equal bits in every parameter, loss, embedding and
// validation loss. It is small enough for the race detector, which
// watches the lanes share the weights and commit in turn.
func TestLanesMatchOneLane(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	const points = 24
	cfg := DefaultConfig(points)
	one, four := New(cfg), New(cfg)
	clouds, _ := cloudFamily(xrand.New(8), 9, points)
	for step := 0; step < 3; step++ {
		got, want := four.trainBatch(clouds, 2, 4), one.trainBatch(clouds, 2, 1)
		if !sameBits(got.Recon, want.Recon) || !sameBits(got.Critic, want.Critic) || !sameBits(got.Adv, want.Adv) {
			t.Fatalf("step %d: losses on four lanes %+v, on one %+v", step, got, want)
		}
		assertParamBits(t, fmt.Sprintf("step %d", step), allParams(four), allParams(one))
	}
	zs := four.EncodeBatch(clouds)
	prev := runtime.GOMAXPROCS(1)
	want := one.EncodeBatch(clouds)
	runtime.GOMAXPROCS(prev)
	for i := range zs {
		for j, v := range want[i] {
			if !sameBits(zs[i][j], v) {
				t.Fatalf("embedding %d[%d] = %v on four lanes, %v on one", i, j, zs[i][j], v)
			}
		}
	}
	if got, want := four.ValidationRecon(clouds), one.ValidationRecon(clouds); !sameBits(got, want) {
		t.Fatalf("ValidationRecon %v, want %v", got, want)
	}
}

// TestTrainBatchAllocsFlat: once a model has trained a batch, every
// buffer TrainBatch needs is owned and reused, so a steady-state batch
// allocates a small constant however many clouds it holds.
func TestTrainBatchAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization")
	}
	const points, bound = 32, 8
	for _, batch := range []int{4, 16, 48} {
		m := New(DefaultConfig(points))
		clouds, _ := cloudFamily(xrand.New(3), batch, points)
		m.TrainBatch(clouds)
		if got := testing.AllocsPerRun(5, func() { m.TrainBatch(clouds) }); got > bound {
			t.Errorf("batch %d: %v allocations per steady-state TrainBatch, want at most %d", batch, got, bound)
		}
	}
}
