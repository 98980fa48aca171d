package dock

import (
	"math"

	"impeccable/internal/xrand"
)

// LocalSearch is a pluggable pose refiner used inside the Lamarckian GA.
// Implementations improve the genome in place and return the refined
// energy.
type LocalSearch interface {
	// Refine improves genome g (modified in place) for at most maxIters
	// iterations, returning the best energy found. The incoming energy
	// of g is passed so implementations can avoid a redundant
	// evaluation.
	Refine(s *ScoreFunc, g []float64, energy float64, maxIters int, r *xrand.RNG) float64
	// Name identifies the method in reports ("solis-wets", "adadelta").
	Name() string
}

// SolisWets is the legacy AutoDock local search: an adaptive random walk
// with a success-biased drift vector and an expanding/contracting step
// size (Solis & Wets, Math. Oper. Res. 1981).
type SolisWets struct {
	InitialRho  float64 // initial step scale (genome units)
	SuccessGate int     // consecutive successes before expansion
	FailureGate int     // consecutive failures before contraction
	MinRho      float64 // termination threshold
}

// NewSolisWets returns the AutoDock-flavored default configuration.
func NewSolisWets() *SolisWets {
	return &SolisWets{InitialRho: 0.3, SuccessGate: 4, FailureGate: 4, MinRho: 1e-3}
}

// Name implements LocalSearch.
func (sw *SolisWets) Name() string { return "solis-wets" }

// Refine implements LocalSearch.
func (sw *SolisWets) Refine(s *ScoreFunc, g []float64, energy float64, maxIters int, r *xrand.RNG) float64 {
	n := len(g)
	rho := sw.InitialRho
	buf := make([]float64, 3*n)
	bias, cand, delta := buf[:n], buf[n:2*n], buf[2*n:]
	succ, fail := 0, 0
	best := energy
	for it := 0; it < maxIters && rho > sw.MinRho; it++ {
		// Forward probe: g + bias + N(0, rho).
		for k := 0; k < n; k++ {
			delta[k] = bias[k] + r.Norm(0, rho)
			cand[k] = g[k] + delta[k]
		}
		e := s.Score(cand)
		if e < best {
			copy(g, cand)
			best = e
			for k := 0; k < n; k++ {
				bias[k] = 0.2*bias[k] + 0.4*delta[k]
			}
			succ, fail = succ+1, 0
		} else {
			// Reverse probe: g - bias - delta.
			for k := 0; k < n; k++ {
				cand[k] = g[k] - delta[k]
			}
			e2 := s.Score(cand)
			if e2 < best {
				copy(g, cand)
				best = e2
				for k := 0; k < n; k++ {
					bias[k] = bias[k] - 0.4*delta[k]
				}
				succ, fail = succ+1, 0
			} else {
				for k := 0; k < n; k++ {
					bias[k] *= 0.5
				}
				succ, fail = 0, fail+1
			}
		}
		if succ >= sw.SuccessGate {
			rho *= 2
			succ = 0
		}
		if fail >= sw.FailureGate {
			rho *= 0.5
			fail = 0
		}
	}
	return best
}

// ADADELTA is the gradient-based local search AutoDock-GPU added (§5.1.1):
// the ADADELTA adaptive step rule (Zeiler 2012) applied to the pose
// gradient, which the paper credits with significantly better docked
// poses/scores than Solis-Wets.
type ADADELTA struct {
	Rho float64 // decay of the squared-gradient / squared-update averages
	Eps float64 // numerical floor
}

// NewADADELTA returns the standard configuration (ρ=0.8, ε=1e-6, matching
// common AutoDock-GPU settings).
func NewADADELTA() *ADADELTA { return &ADADELTA{Rho: 0.8, Eps: 1e-6} }

// Name implements LocalSearch.
func (ad *ADADELTA) Name() string { return "adadelta" }

// Refine implements LocalSearch.
func (ad *ADADELTA) Refine(s *ScoreFunc, g []float64, energy float64, maxIters int, r *xrand.RNG) float64 {
	n := len(g)
	grad := make([]float64, n)
	eg2 := make([]float64, n) // running avg of squared gradients
	ex2 := make([]float64, n) // running avg of squared updates
	// Warm-start the update average so the first steps move at a
	// physically meaningful scale (~0.1 genome units) instead of √ε.
	for k := range ex2 {
		ex2[k] = 0.01
	}
	cand := make([]float64, n)
	bestG := make([]float64, n)
	copy(cand, g)
	copy(bestG, g)
	best := energy
	for it := 0; it < maxIters; it++ {
		s.Gradient(cand, grad)
		for k := 0; k < n; k++ {
			eg2[k] = ad.Rho*eg2[k] + (1-ad.Rho)*grad[k]*grad[k]
			dx := -math.Sqrt(ex2[k]+ad.Eps) / math.Sqrt(eg2[k]+ad.Eps) * grad[k]
			ex2[k] = ad.Rho*ex2[k] + (1-ad.Rho)*dx*dx
			cand[k] += dx
		}
		if e := s.Score(cand); e < best {
			best = e
			copy(bestG, cand)
		}
	}
	copy(g, bestG)
	return best
}
