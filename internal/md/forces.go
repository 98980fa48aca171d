package md

import (
	"math"

	"impeccable/internal/geom"
)

// Energies decomposes the potential energy of a configuration into the
// components the ESMACS MMPBSA-style estimator consumes.
type Energies struct {
	ProteinInternal float64 // bonds + elastic-network restraints
	LigandInternal  float64 // ligand bonds and shape springs
	Inter           float64 // protein-ligand interaction (wells, repulsion, clash)
	Potential       float64 // sum of the above
}

// Forces computes -∇E into s.forceBuf and returns the energy
// decomposition. The returned slice is owned by the System and valid
// until the next Forces call.
func (s *System) Forces() ([]geom.Vec3, Energies) {
	f := s.forceBuf
	for i := range f {
		f[i] = geom.Vec3{}
	}
	var e Energies

	// --- Protein internal ---
	// Elastic-network anchors.
	kr := s.Par.ProteinRestraintK
	for i := 0; i < s.NProt; i++ {
		d := s.Pos[i].Sub(s.proteinRef[i])
		e.ProteinInternal += 0.5 * kr * d.Norm2()
		f[i] = f[i].Sub(d.Scale(kr))
	}
	// Cα-Cα virtual bonds.
	kb := s.Par.ProteinBondK
	for i := 0; i+1 < s.NProt; i++ {
		e.ProteinInternal += spring(s.Pos, f, i, i+1, s.protBond0[i], kb)
	}

	// --- Ligand internal ---
	lig := s.NProt
	klb := s.Par.LigandBondK
	for i := 0; i+1 < s.NLig; i++ {
		e.LigandInternal += spring(s.Pos, f, lig+i, lig+i+1, s.ligBond0[i], klb)
	}
	kla := s.Par.LigandAngleK
	for i := 0; i+2 < s.NLig; i++ {
		e.LigandInternal += spring(s.Pos, f, lig+i, lig+i+2, s.ligAngle0[i], kla)
	}

	// --- Protein-ligand interaction ---
	// Soft-core repulsion between Cα beads and ligand beads.
	kRep := s.Par.RepulsionK
	pr := s.Par.ProteinRadius
	for i := 0; i < s.NProt; i++ {
		for j := 0; j < s.NLig; j++ {
			jj := lig + j
			rc := pr + s.Conf.Beads[j].Radius
			d := s.Pos[i].Dist(s.Pos[jj])
			if d >= rc || d == 0 {
				continue
			}
			ov := rc - d
			e.Inter += kRep * ov * ov
			dir := s.Pos[jj].Sub(s.Pos[i]).Scale(1 / d)
			push := dir.Scale(2 * kRep * ov)
			f[jj] = f[jj].Add(push)
			f[i] = f[i].Sub(push)
		}
	}
	// Subsite attraction (same wells/depths as the docking score).
	ws := s.Par.WellScale
	for j := 0; j < s.NLig; j++ {
		jj := lig + j
		class := s.Conf.Beads[j].Class
		for w := range s.wells {
			well := &s.wells[w]
			depth := ws * s.depths[w][class]
			diff := s.Pos[jj].Sub(well.Pos)
			d2 := diff.Norm2()
			sig2 := well.Sigma * well.Sigma
			g := math.Exp(-d2 / (2 * sig2))
			e.Inter -= depth * g
			// F = -∇E = -depth*g*(diff/sig2)  (attractive toward well)
			f[jj] = f[jj].Sub(diff.Scale(depth * g / sig2))
		}
	}
	// Protein-body clash keeps the ligand in cavity or solvent.
	kc := s.Par.BodyClashK
	for j := 0; j < s.NLig; j++ {
		jj := lig + j
		pen := s.Target.BodyPenetration(s.Pos[jj])
		if pen <= 0 {
			continue
		}
		e.Inter += kc * pen * pen
		f[jj] = f[jj].Add(penetrationGradient(s, s.Pos[jj]).Scale(-2 * kc * pen))
	}

	e.Potential = e.ProteinInternal + e.LigandInternal + e.Inter
	return f, e
}

// spring accumulates a harmonic bond between beads a and b with rest
// length r0 and stiffness k; returns the bond energy.
func spring(pos, f []geom.Vec3, a, b int, r0, k float64) float64 {
	d := pos[b].Sub(pos[a])
	r := d.Norm()
	if r == 0 {
		return 0
	}
	dr := r - r0
	dir := d.Scale(1 / r)
	fv := dir.Scale(k * dr) // force on a toward b when stretched
	f[a] = f[a].Add(fv)
	f[b] = f[b].Sub(fv)
	return 0.5 * k * dr * dr
}

// penetrationGradient returns ∇pen(x) for the receptor body-penetration
// measure: pen = min(R - |x|, dcav - pr) on its support.
func penetrationGradient(s *System, x geom.Vec3) geom.Vec3 {
	R := s.Target.SurfaceRadius()
	pc := s.Target.PocketCenter()
	prad := s.Target.PocketRadius()
	d := x.Norm()
	if d >= R {
		return geom.Vec3{}
	}
	cav := x.Dist(pc)
	if cav <= prad {
		return geom.Vec3{}
	}
	penSurf := R - d
	penWall := cav - prad
	if penWall < penSurf {
		// pen = |x - pc| - prad, ∇ = unit(x - pc)
		return x.Sub(pc).Unit()
	}
	// pen = R - |x|, ∇ = -x̂
	return x.Unit().Scale(-1)
}

// KineticEnergy returns ½ Σ m v².
func (s *System) KineticEnergy() float64 {
	var ke float64
	for i := range s.Vel {
		ke += 0.5 * s.Mass[i] * s.Vel[i].Norm2()
	}
	return ke
}
