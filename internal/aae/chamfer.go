// Package aae implements the S2 stage's 3D adversarial autoencoder
// (§5.1.4): a PointNet-style encoder (shared per-point MLP + max pool)
// over Cα point clouds, an MLP decoder, a Chamfer-distance reconstruction
// loss, and adversarial matching of the latent code to a Gaussian prior
// (σ = 0.2, latent dimension 64, RMSprop, reconstruction scaled by 0.5
// and the adversarial penalty by 10 — all per the paper's §7.1.3
// hyperparameters).
//
// Substitution note (DESIGN.md): the paper's Wasserstein critic uses a
// gradient penalty, which needs second-order autodiff; with a from-scratch
// stdlib network the penalty is realized as WGAN weight clipping plus a
// finite-difference directional gradient penalty — both enforcing the same
// 1-Lipschitz constraint on the critic.
package aae

import (
	"math"

	"impeccable/internal/geom"
)

// Chamfer returns the symmetric Chamfer distance between two point
// clouds: mean over a of squared distance to the nearest point of b, plus
// the reverse. It is zero iff the clouds cover each other exactly.
func Chamfer(a, b []geom.Vec3) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0
		}
		return math.Inf(1)
	}
	var sum float64
	for _, p := range a {
		sum += nearestDist2(p, b)
	}
	s1 := sum / float64(len(a))
	sum = 0
	for _, q := range b {
		sum += nearestDist2(q, a)
	}
	return s1 + sum/float64(len(b))
}

func nearestDist2(p geom.Vec3, pts []geom.Vec3) float64 {
	best := math.Inf(1)
	for _, q := range pts {
		if d := p.Dist2(q); d < best {
			best = d
		}
	}
	return best
}

// chamferGrad returns the Chamfer distance between the reconstruction rec
// and the reference ref, and writes dChamfer/dRec into grad (one Vec3
// per reconstruction point). near and nearAt are scratch of len(ref).
//
// One sweep over the point pairs finds both nearest-neighbour maps: for
// each reconstruction point its nearest reference point, and for each
// reference point its nearest reconstruction point. Squared distance is
// symmetric bit for bit ((a−b)² = (b−a)²), the first minimum wins in
// both directions as in two separate scans, and the loss and gradient
// terms are summed in the two scans' order.
func chamferGrad(rec, ref, grad []geom.Vec3, near []float64, nearAt []int) float64 {
	clear(grad)
	for j := range ref {
		near[j], nearAt[j] = math.Inf(1), 0
	}
	var loss float64
	nRec, nRef := float64(len(rec)), float64(len(ref))
	// Term 1: Σ_rec min_ref |r - p|² / nRec.
	for i, rp := range rec {
		best, bi := math.Inf(1), 0
		for j, p := range ref {
			d := rp.Dist2(p)
			if d < best {
				best, bi = d, j
			}
			if d < near[j] {
				near[j], nearAt[j] = d, i
			}
		}
		loss += best / nRec
		grad[i] = grad[i].Add(rp.Sub(ref[bi]).Scale(2 / nRec))
	}
	// Term 2: Σ_ref min_rec |p - r|² / nRef; gradient flows to the
	// nearest reconstruction point of each reference point.
	for j, p := range ref {
		bi := nearAt[j]
		loss += near[j] / nRef
		grad[bi] = grad[bi].Add(rec[bi].Sub(p).Scale(2 / nRef))
	}
	return loss
}
