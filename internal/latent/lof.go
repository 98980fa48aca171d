// Package latent provides the latent-space analysis toolkit of the S2
// stage: local outlier factor (LOF) detection for selecting "interesting"
// protein-ligand conformations from 3D-AAE embeddings (§5.1.4) and exact
// t-SNE for the latent-space visualizations of Fig. 5C.
package latent

import (
	"math"
	"slices"
	"sort"
)

// LOF computes the local outlier factor of every point (Breunig et al.
// 2000) with neighbourhood size k. Scores near 1 indicate inliers; scores
// substantially above 1 indicate density-based outliers. Points are rows
// of x. Panics if k <= 0 or k >= len(x).
func LOF(x [][]float64, k int) []float64 {
	n := len(x)
	if k <= 0 || k >= n {
		panic("latent: LOF requires 0 < k < n")
	}
	// Pairwise distances and k-nearest neighbours.
	type nb struct {
		idx int
		d   float64
	}
	neighbors := make([][]nb, n)
	kdist := make([]float64, n)
	for i := 0; i < n; i++ {
		all := make([]nb, 0, n-1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			all = append(all, nb{j, euclid(x[i], x[j])})
		}
		// Equidistant neighbours go to the lower index, so the
		// neighbourhood and reachSum's summation order are defined.
		slices.SortFunc(all, func(a, b nb) int {
			switch {
			case a.d < b.d:
				return -1
			case a.d > b.d:
				return 1
			}
			return a.idx - b.idx
		})
		neighbors[i] = all[:k]
		kdist[i] = all[k-1].d
	}
	// Local reachability density.
	lrd := make([]float64, n)
	for i := 0; i < n; i++ {
		var reachSum float64
		for _, nbr := range neighbors[i] {
			reach := nbr.d
			if kdist[nbr.idx] > reach {
				reach = kdist[nbr.idx]
			}
			reachSum += reach
		}
		if reachSum == 0 {
			lrd[i] = math.Inf(1)
		} else {
			lrd[i] = float64(k) / reachSum
		}
	}
	// LOF = mean neighbour lrd / own lrd.
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for _, nbr := range neighbors[i] {
			s += lrd[nbr.idx]
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

// TopOutliers returns the indices of the m largest LOF scores, most
// anomalous first; equal scores keep index order.
func TopOutliers(scores []float64, m int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := scores[idx[a]], scores[idx[b]]
		return sa > sb || sa == sb && idx[a] < idx[b]
	})
	if m > len(idx) {
		m = len(idx)
	}
	return idx[:m]
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
