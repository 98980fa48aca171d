// Package surrogate implements ML1: the deep-learning docking-score
// emulator that pre-selects compounds for physics-based docking (paper
// §5.1.2, §6.1.1). The paper trains a ResNet-50 on 2-D molecule images
// and deploys it with TensorRT at FP16; this reproduction trains an MLP
// on hashed-fingerprint + descriptor features (see DESIGN.md on the
// substitution: the operative property — near-perfect filtering of two
// orders of magnitude of the library with imperfect global rank order —
// is a function of the learning problem, not the architecture).
//
// As in the paper, targets are docking scores mapped into [0, 1] with
// higher values indicating lower (better) binding energies, and model
// quality is assessed with the Regression Enrichment Surface (RES) of
// Clyde et al., reproduced in Fig. 4.
package surrogate

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"impeccable/internal/chem"
	"impeccable/internal/nn"
	"impeccable/internal/xrand"
)

// Model is the ML1 docking-score emulator.
type Model struct {
	net *nn.Sequential
	rng *xrand.RNG
	// Normalization of raw docking scores into [0,1] targets
	// (higher = stronger predicted binding).
	lo, hi float64
}

// NewModel builds an untrained surrogate with the standard architecture:
// FeatureDim → 128 → 64 → 1 with ReLU hidden activations and a sigmoid
// output head matching the [0, 1] target mapping.
func NewModel(seed uint64) *Model {
	r := xrand.New(seed)
	return &Model{
		net: nn.NewSequential(
			nn.NewDense(chem.FeatureDim, 128, r),
			&nn.ReLU{},
			nn.NewDense(128, 64, r),
			&nn.ReLU{},
			nn.NewDense(64, 1, r),
			&nn.Sigmoid{},
		),
		rng: r,
		lo:  -1, hi: 1,
	}
}

// TrainConfig controls surrogate training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	ValFrac   float64 // fraction of samples held out for validation
}

// DefaultTrainConfig mirrors a scaled-down version of the paper's
// pretraining run (500 k OZD samples, §6.1.1).
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, BatchSize: 64, LR: 1e-3, ValFrac: 0.2}
}

// Validate reports the first invalid field, if any. Fit and CNNModel.Fit
// call it so a bad configuration (e.g. a negative ValFrac, which would
// otherwise slice perm[:nVal] with nVal < 0 and panic) surfaces as an
// error instead of a runtime fault mid-campaign.
func (cfg TrainConfig) Validate() error {
	if cfg.Epochs < 1 {
		return fmt.Errorf("surrogate: TrainConfig.Epochs must be >= 1, got %d", cfg.Epochs)
	}
	if cfg.BatchSize < 0 {
		return fmt.Errorf("surrogate: TrainConfig.BatchSize must be >= 0, got %d", cfg.BatchSize)
	}
	if !(cfg.LR > 0) || math.IsInf(cfg.LR, 0) {
		return fmt.Errorf("surrogate: TrainConfig.LR must be positive and finite, got %v", cfg.LR)
	}
	// The negated form catches NaN as well as out-of-range values.
	if !(cfg.ValFrac >= 0 && cfg.ValFrac < 1) {
		return fmt.Errorf("surrogate: TrainConfig.ValFrac must be in [0, 1), got %v", cfg.ValFrac)
	}
	return nil
}

// Report summarizes a training run.
type Report struct {
	TrainLoss []float64 // per-epoch training MSE
	ValLoss   []float64 // per-epoch validation MSE
	Samples   int
	Flops     int64 // training floating-point operations (Table 3 accounting)
}

// normalize maps a raw docking score (kcal/mol, lower = better) to the
// [0,1] target space (higher = better).
func (m *Model) normalize(raw float64) float64 {
	t := (m.hi - raw) / (m.hi - m.lo)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return t
}

// Fit trains the surrogate on molecules and their raw docking scores.
func (m *Model) Fit(mols []*chem.Molecule, scores []float64, cfg TrainConfig) (Report, error) {
	if len(mols) != len(scores) {
		return Report{}, fmt.Errorf("surrogate: %d molecules but %d scores", len(mols), len(scores))
	}
	if len(mols) < 4 {
		return Report{}, fmt.Errorf("surrogate: too few samples (%d)", len(mols))
	}
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	// Calibrate the score mapping on the training distribution.
	m.lo, m.hi = math.Inf(1), math.Inf(-1)
	for _, s := range scores {
		m.lo = math.Min(m.lo, s)
		m.hi = math.Max(m.hi, s)
	}
	if m.hi == m.lo {
		m.hi = m.lo + 1
	}

	n := len(mols)
	perm := m.rng.Perm(n)
	// ValFrac < 1 (validated above), so nVal < n barring float rounding
	// at the very top of the range; clamp so the training split is never
	// empty.
	nVal := int(cfg.ValFrac * float64(n))
	if nVal >= n {
		nVal = n - 1
	}
	valIdx, trainIdx := perm[:nVal], perm[nVal:]

	feats := make([][]float64, n)
	for i, mol := range mols {
		feats[i] = mol.FeatureVector()
	}
	makeBatch := func(idx []int) (*nn.Mat, *nn.Mat) {
		x := nn.NewMat(len(idx), chem.FeatureDim)
		y := nn.NewMat(len(idx), 1)
		for bi, i := range idx {
			copy(x.Row(bi), feats[i])
			y.Set(bi, 0, m.normalize(scores[i]))
		}
		return x, y
	}

	opt := nn.NewAdam(cfg.LR)
	rep := Report{Samples: n}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 64
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		m.rng.Shuffle(len(trainIdx), func(i, j int) {
			trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i]
		})
		var epochLoss float64
		var nb int
		for at := 0; at < len(trainIdx); at += batch {
			end := at + batch
			if end > len(trainIdx) {
				end = len(trainIdx)
			}
			x, y := makeBatch(trainIdx[at:end])
			m.net.ZeroGrad()
			pred := m.net.Forward(x)
			loss, grad := nn.MSELoss(pred, y)
			m.net.Backward(grad)
			opt.Step(m.net.Params())
			epochLoss += loss
			nb++
			// forward + backward ≈ 3× forward flops.
			rep.Flops += 3 * m.net.ForwardFlops(end-at)
		}
		rep.TrainLoss = append(rep.TrainLoss, epochLoss/float64(nb))
		if nVal > 0 {
			x, y := makeBatch(valIdx)
			pred := m.net.Forward(x)
			vl, _ := nn.MSELoss(pred, y)
			rep.ValLoss = append(rep.ValLoss, vl)
			rep.Flops += m.net.ForwardFlops(nVal)
		}
	}
	return rep, nil
}

// Predict returns the surrogate score in [0,1] (higher = predicted
// stronger binder) for each molecule.
func (m *Model) Predict(mols []*chem.Molecule) []float64 {
	x := nn.NewMat(len(mols), chem.FeatureDim)
	for i, mol := range mols {
		copy(x.Row(i), mol.FeatureVector())
	}
	out := m.net.Forward(x)
	res := make([]float64, len(mols))
	for i := range res {
		res[i] = out.At(i, 0)
	}
	return res
}

// InferenceFlops estimates FLOPs for scoring n molecules.
func (m *Model) InferenceFlops(n int) int64 { return m.net.ForwardFlops(n) }

// FeatureSource supplies the feature vector of a molecule given its
// library ID. It is the injection point for caching layers: materializing
// a molecule and featurizing it is deterministic and identical across
// tenants, so a long-lived service can memoize vectors once and serve
// every campaign's ML1 screen from memory. Implementations must be safe
// for concurrent use; the returned slice is read-only to callers.
type FeatureSource interface {
	Features(id uint64) []float64
}

// BatchFeatureSource is an optional FeatureSource extension for the
// batched inference path: FeaturesInto writes id's feature vector into
// dst (length chem.FeatureDim), overwriting every element, instead of
// returning a freshly allocated or cached slice. Implementations must be
// safe for concurrent use. Sources that implement it let inference
// workers featurize directly into kernel input buffers with zero copies
// and zero per-molecule allocations.
type BatchFeatureSource interface {
	FeatureSource
	FeaturesInto(dst []float64, id uint64)
}

// materializeSource is the default FeatureSource: build the molecule from
// its ID and featurize it on the fly.
type materializeSource struct{}

func (materializeSource) Features(id uint64) []float64 {
	return chem.FromID(id).FeatureVector()
}

func (materializeSource) FeaturesInto(dst []float64, id uint64) {
	chem.FromID(id).FeatureVectorInto(dst)
}

// fillFeatures loads ids' feature vectors into the rows of x, using the
// in-place path when the source supports it. Every row is fully
// overwritten, so x may be arena scratch with arbitrary contents.
func fillFeatures(x *nn.Mat, ids []uint64, src FeatureSource) {
	if bs, ok := src.(BatchFeatureSource); ok {
		for i, id := range ids {
			bs.FeaturesInto(x.Row(i), id)
		}
		return
	}
	for i, id := range ids {
		copy(x.Row(i), src.Features(id))
	}
}

// PredictIDs scores library molecule IDs with a parallel worker pool, the
// high-throughput inference path of §6.1.1 (one MPI rank per GPU with
// prefetching becomes one goroutine per worker materializing molecules on
// the fly).
func (m *Model) PredictIDs(ids []uint64, workers int) []float64 {
	return m.PredictIDsFrom(ids, workers, nil)
}

// PredictIDsFrom is PredictIDs with an explicit feature source; nil means
// materialize molecules on the fly.
func (m *Model) PredictIDsFrom(ids []uint64, workers int, src FeatureSource) []float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if src == nil {
		src = materializeSource{}
	}
	const shard = 1024
	out := make([]float64, len(ids))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Workers share the model weights through the cache-free inference
	// path (nn.Sequential.Infer): no activation state is written, so no
	// per-worker weight clone is needed — each worker just carries a
	// pooled scratch arena for its activations.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := nn.GetArena()
			defer ar.Release()
			for {
				mu.Lock()
				at := next
				next += shard
				mu.Unlock()
				if at >= len(ids) {
					return
				}
				end := at + shard
				if end > len(ids) {
					end = len(ids)
				}
				ar.Reset()
				x := ar.Mat(end-at, chem.FeatureDim)
				fillFeatures(x, ids[at:end], src)
				pred := m.net.Infer(x, ar)
				for i := at; i < end; i++ {
					out[i] = pred.At(i-at, 0)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// TopK returns the indices of the k highest surrogate scores. Equal
// scores are ordered by ascending index, so the selection is fully
// deterministic (sort.Slice alone leaves tie order unspecified).
func TopK(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := scores[idx[a]], scores[idx[b]]
		if sa != sb {
			return sa > sb
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// BottomK returns the indices of the k lowest raw values (e.g. best
// docking scores). Equal values are ordered by ascending index.
func BottomK(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := scores[idx[a]], scores[idx[b]]
		if sa != sb {
			return sa < sb
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
