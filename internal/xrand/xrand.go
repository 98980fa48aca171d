// Package xrand provides a small, fast, deterministic and splittable
// pseudo-random number generator used throughout the IMPECCABLE
// reproduction. Every stochastic component (molecule generation, docking
// search, MD thermostat, neural-network initialization, schedulers) draws
// from an xrand.RNG seeded from the experiment configuration, so that all
// tables and figures regenerate bit-identically.
//
// The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit
// state advanced by a Weyl sequence and mixed by a finalizer. It passes
// BigCrush, has period 2^64, and — crucially for a parallel campaign —
// supports O(1) splitting into statistically independent streams, which lets
// each task, replica, or worker own a private stream derived from a parent
// seed without coordination.
package xrand

import "math"

// RNG is a splittable SplitMix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New.
type RNG struct {
	state uint64
	// gauss caches the second variate of the Box-Muller pair.
	gauss    float64
	hasGauss bool
}

// golden is the SplitMix64 Weyl increment (2^64 / phi).
const golden = 0x9E3779B97F4A7C15

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// NewFrom derives a child generator from a parent seed and a stream
// identifier. Distinct ids yield statistically independent streams.
func NewFrom(seed uint64, id uint64) *RNG {
	return New(mix64(seed ^ mix64(id+golden)))
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix64(r.state)
}

// Split returns a new generator whose stream is independent of r's
// continued output. r itself advances by one step.
func (r *RNG) Split() *RNG {
	return New(mix64(r.Uint64() + golden))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate via Box-Muller, with the
// spare variate cached so consecutive calls cost one transform per pair.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Norm returns a normal variate with the given mean and standard deviation.
func (r *RNG) Norm(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// ExpFloat64 returns an exponentially distributed variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle applies a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Choice returns a uniformly selected index weighted by w (all w >= 0, at
// least one positive). It panics on an empty or all-zero weight vector.
func (r *RNG) Choice(w []float64) int {
	var total float64
	for _, x := range w {
		if x < 0 {
			panic("xrand: negative weight")
		}
		total += x
	}
	if total <= 0 {
		panic("xrand: Choice over zero total weight")
	}
	t := r.Float64() * total
	for i, x := range w {
		t -= x
		if t < 0 {
			return i
		}
	}
	return len(w) - 1
}

// SampleK reservoir-samples k distinct indices from [0, n). If k >= n it
// returns the identity permutation of n indices (shuffled).
func (r *RNG) SampleK(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	res := make([]int, k)
	for i := 0; i < k; i++ {
		res[i] = i
	}
	for i := k; i < n; i++ {
		j := r.Intn(i + 1)
		if j < k {
			res[j] = i
		}
	}
	return res
}
