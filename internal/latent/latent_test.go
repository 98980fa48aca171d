package latent

import (
	"math"
	"testing"

	"impeccable/internal/xrand"
)

// gaussianCluster samples n points around center with the given spread.
func gaussianCluster(r *xrand.RNG, n, dim int, center, spread float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for d := range pts[i] {
			pts[i][d] = r.Norm(center, spread)
		}
	}
	return pts
}

func TestLOFDetectsPlantedOutliers(t *testing.T) {
	r := xrand.New(1)
	pts := gaussianCluster(r, 100, 4, 0, 0.5)
	// Plant 3 far outliers.
	outIdx := []int{100, 101, 102}
	for range outIdx {
		p := make([]float64, 4)
		for d := range p {
			p[d] = r.Norm(10, 0.2)
		}
		pts = append(pts, p)
	}
	scores := LOF(pts, 10)
	top := TopOutliers(scores, 3)
	found := map[int]bool{}
	for _, i := range top {
		found[i] = true
	}
	for _, want := range outIdx {
		if !found[want] {
			t.Fatalf("planted outlier %d not in top-3 LOF: top = %v", want, top)
		}
	}
}

func TestLOFInliersNearOne(t *testing.T) {
	r := xrand.New(2)
	pts := gaussianCluster(r, 200, 3, 0, 1)
	scores := LOF(pts, 15)
	var mean float64
	for _, s := range scores {
		mean += s
	}
	mean /= float64(len(scores))
	if mean < 0.8 || mean > 1.5 {
		t.Fatalf("mean LOF of uniform cluster = %v, want ≈1", mean)
	}
}

func TestLOFPanicsOnBadK(t *testing.T) {
	pts := gaussianCluster(xrand.New(3), 10, 2, 0, 1)
	for _, k := range []int{0, 10, 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for k=%d", k)
				}
			}()
			LOF(pts, k)
		}()
	}
}

func TestTopOutliersOrder(t *testing.T) {
	scores := []float64{1.0, 3.0, 2.0, 0.5}
	top := TopOutliers(scores, 2)
	if top[0] != 1 || top[1] != 2 {
		t.Fatalf("TopOutliers = %v", top)
	}
	if got := TopOutliers(scores, 100); len(got) != 4 {
		t.Fatalf("overflow m: %v", got)
	}
}

func TestTSNESeparatesClusters(t *testing.T) {
	r := xrand.New(4)
	a := gaussianCluster(r, 40, 8, 0, 0.3)
	b := gaussianCluster(r, 40, 8, 6, 0.3)
	pts := append(a, b...)
	cfg := DefaultTSNEConfig()
	cfg.Iters = 250
	y := TSNE(pts, cfg)
	if len(y) != 80 || len(y[0]) != 2 {
		t.Fatalf("embedding shape wrong: %d × %d", len(y), len(y[0]))
	}
	// Mean intra-cluster distance must be far below inter-cluster
	// distance in the embedding.
	intra, inter := 0.0, 0.0
	ni, nx := 0, 0
	for i := 0; i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			d := euclid(y[i], y[j])
			if (i < 40) == (j < 40) {
				intra += d
				ni++
			} else {
				inter += d
				nx++
			}
		}
	}
	intra /= float64(ni)
	inter /= float64(nx)
	if inter < 1.5*intra {
		t.Fatalf("t-SNE failed to separate: intra %v, inter %v", intra, inter)
	}
}

func TestTSNEEdgeCases(t *testing.T) {
	if got := TSNE(nil, DefaultTSNEConfig()); got != nil {
		t.Fatalf("empty input: %v", got)
	}
	one := TSNE([][]float64{{1, 2, 3}}, DefaultTSNEConfig())
	if len(one) != 1 || len(one[0]) != 2 {
		t.Fatalf("single point embedding: %v", one)
	}
	// Tiny inputs must not hang or NaN.
	r := xrand.New(5)
	small := gaussianCluster(r, 5, 3, 0, 1)
	cfg := DefaultTSNEConfig()
	cfg.Iters = 50
	y := TSNE(small, cfg)
	for _, row := range y {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite embedding value: %v", y)
			}
		}
	}
}

func TestTSNEDeterministic(t *testing.T) {
	r := xrand.New(6)
	pts := gaussianCluster(r, 30, 4, 0, 1)
	cfg := DefaultTSNEConfig()
	cfg.Iters = 60
	a := TSNE(pts, cfg)
	b := TSNE(pts, cfg)
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatal("t-SNE not deterministic")
			}
		}
	}
}

func BenchmarkLOF500(b *testing.B) {
	pts := gaussianCluster(xrand.New(1), 500, 16, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LOF(pts, 20)
	}
}

func BenchmarkTSNE200(b *testing.B) {
	pts := gaussianCluster(xrand.New(1), 200, 16, 0, 1)
	cfg := DefaultTSNEConfig()
	cfg.Iters = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TSNE(pts, cfg)
	}
}

// refLOF is LOF with its neighbourhoods chosen by selection instead of
// a sort: k times the nearest remaining point, the lower index among
// equals. It is the tie order LOF promises, spelled out.
func refLOF(x [][]float64, k int) []float64 {
	n := len(x)
	nbrs := make([][]int, n)
	kdist := make([]float64, n)
	for i := range x {
		taken := make([]bool, n)
		taken[i] = true
		for range k {
			best := -1
			for j := range x {
				if !taken[j] && (best < 0 || euclid(x[i], x[j]) < euclid(x[i], x[best])) {
					best = j
				}
			}
			taken[best] = true
			nbrs[i] = append(nbrs[i], best)
		}
		kdist[i] = euclid(x[i], x[nbrs[i][k-1]])
	}
	lrd := make([]float64, n)
	for i := range x {
		var reachSum float64
		for _, j := range nbrs[i] {
			reachSum += math.Max(euclid(x[i], x[j]), kdist[j])
		}
		lrd[i] = math.Inf(1)
		if reachSum != 0 {
			lrd[i] = float64(k) / reachSum
		}
	}
	out := make([]float64, n)
	for i := range x {
		var s float64
		for _, j := range nbrs[i] {
			s += lrd[j]
		}
		s /= float64(k)
		switch {
		case math.IsInf(lrd[i], 1) && math.IsInf(s, 1):
			out[i] = 1
		case math.IsInf(lrd[i], 1):
			out[i] = 0
		default:
			out[i] = s / lrd[i]
		}
	}
	return out
}

// TestLOFTiesGoToLowerIndex: on a lattice full of duplicated points and
// equal distances, LOF matches the selection reference bit for bit.
func TestLOFTiesGoToLowerIndex(t *testing.T) {
	r := xrand.New(4)
	pts := make([][]float64, 60)
	for i := range pts {
		pts[i] = []float64{float64(r.Intn(5)), float64(r.Intn(4)), float64(r.Intn(2))}
	}
	for _, k := range []int{3, 7, 12} {
		got, want := LOF(pts, k), refLOF(pts, k)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("k=%d: LOF[%d] = %v, reference %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestTopOutliersTiesKeepIndexOrder: equal scores rank by index.
func TestTopOutliersTiesKeepIndexOrder(t *testing.T) {
	scores := make([]float64, 50)
	for i := range scores {
		scores[i] = float64((i * 7) % 3)
	}
	top := TopOutliers(scores, len(scores))
	for i := 1; i < len(top); i++ {
		a, b := top[i-1], top[i]
		if scores[a] < scores[b] || scores[a] == scores[b] && a > b {
			t.Fatalf("rank %d: index %d (score %v) before index %d (score %v)", i, a, scores[a], b, scores[b])
		}
	}
}
