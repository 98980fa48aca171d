// Package md is the molecular-dynamics substrate standing in for the
// paper's OpenMM/NAMD engines: a coarse-grained bead model of the
// protein-ligand complex (LPC) with an elastic-network protein (one bead
// per Cα, 309 for PLPro as in §7.1.3), a flexible ligand, and the same
// pocket/well interaction landscape the docking engine scores against —
// so that docking poses, MD ensembles, and free-energy estimates are
// mutually consistent observations of one hidden ground truth.
//
// Dynamics are integrated with the BAOAB Langevin splitting (Leimkuhler &
// Matthews 2013), which reduces to velocity Verlet at zero friction — the
// property the energy-conservation tests rely on.
package md

import (
	"math"

	"impeccable/internal/chem"
	"impeccable/internal/geom"
	"impeccable/internal/receptor"
)

// ForceParams are the force-field constants (kcal/mol-Å units at the
// usual coarse-grained fidelity).
type ForceParams struct {
	ProteinBondK      float64 // Cα-Cα virtual bond stiffness
	ProteinRestraintK float64 // elastic-network anchor stiffness
	LigandBondK       float64 // ligand consecutive-bead bonds
	LigandAngleK      float64 // weak i,i+2 shape springs
	RepulsionK        float64 // protein-ligand soft-core repulsion
	WellScale         float64 // scale on the receptor subsite attraction
	BodyClashK        float64 // ligand-into-protein-body penalty
	ProteinRadius     float64 // effective Cα bead radius
}

// DefaultForceParams returns the standard parameterization.
func DefaultForceParams() ForceParams {
	return ForceParams{
		ProteinBondK:      20,
		ProteinRestraintK: 2.0,
		LigandBondK:       30,
		LigandAngleK:      3,
		RepulsionK:        4,
		WellScale:         1.0,
		BodyClashK:        4,
		ProteinRadius:     2.2,
	}
}

// System is a protein-ligand complex ready for dynamics. Positions are
// stored protein-first: indices [0, NProt) are Cα beads, [NProt,
// NProt+NLig) are ligand beads.
type System struct {
	Target *receptor.Target
	Mol    *chem.Molecule
	Conf   *chem.Conformer
	Par    ForceParams

	NProt, NLig int
	Pos         []geom.Vec3
	Vel         []geom.Vec3
	Mass        []float64

	proteinRef  []geom.Vec3 // elastic-network anchors
	protBond0   []float64   // reference Cα-Cα bond lengths
	ligBond0    []float64   // reference ligand bond lengths
	ligAngle0   []float64   // reference ligand i,i+2 distances
	depths      [][chem.NumBeadClasses]float64
	wells       []receptor.Well
	forceBuf    []geom.Vec3
	sigmaBuf    []float64   // per-bead O-step noise scale (Integrator scratch)
	startLigand []geom.Vec3 // initial ligand positions, for RMSD
}

// NewSystem assembles an LPC. ligandPos gives the initial ligand bead
// positions (typically a docked pose); pass nil to place the canonical
// conformer at the pocket center.
func NewSystem(t *receptor.Target, m *chem.Molecule, ligandPos []geom.Vec3) *System {
	conf := chem.NewConformer(m)
	if ligandPos == nil {
		// Default placement: the canonical conformer shrunk to fit the
		// cavity. (The production pipeline always passes a docked pose;
		// this fallback only needs to avoid catastrophic clashes with
		// the cavity wall for elongated conformers.)
		ligandPos = conf.Apply(geom.Vec3{}, geom.IdentityQuat(),
			make([]float64, conf.NumTorsions()), nil)
		var maxR float64
		for _, p := range ligandPos {
			if r := p.Norm(); r > maxR {
				maxR = r
			}
		}
		fit := 0.8 * t.PocketRadius()
		scale := 1.0
		if maxR > fit {
			scale = fit / maxR
		}
		for i := range ligandPos {
			ligandPos[i] = ligandPos[i].Scale(scale).Add(t.PocketCenter())
		}
	}
	if len(ligandPos) != len(conf.Beads) {
		panic("md: ligand position count mismatch")
	}
	bb := t.Backbone()
	s := &System{
		Target: t,
		Mol:    m,
		Conf:   conf,
		Par:    DefaultForceParams(),
		NProt:  len(bb),
		NLig:   len(conf.Beads),
		depths: t.WellDepths(m),
		wells:  t.Wells(),
	}
	n := s.NProt + s.NLig
	s.Pos = make([]geom.Vec3, n)
	s.Vel = make([]geom.Vec3, n)
	s.Mass = make([]float64, n)
	s.proteinRef = make([]geom.Vec3, s.NProt)
	copy(s.Pos, bb)
	copy(s.proteinRef, bb)
	for i := 0; i < s.NProt; i++ {
		s.Mass[i] = 3.0 // Cα bead with side-chain mass lumped in
	}
	for i := 0; i < s.NLig; i++ {
		s.Pos[s.NProt+i] = ligandPos[i]
		s.Mass[s.NProt+i] = 1.0
	}
	s.protBond0 = make([]float64, s.NProt-1)
	for i := 0; i+1 < s.NProt; i++ {
		s.protBond0[i] = bb[i].Dist(bb[i+1])
	}
	s.ligBond0 = make([]float64, 0, s.NLig)
	for i := 0; i+1 < s.NLig; i++ {
		s.ligBond0 = append(s.ligBond0, conf.Beads[i].Pos.Dist(conf.Beads[i+1].Pos))
	}
	s.ligAngle0 = make([]float64, 0, s.NLig)
	for i := 0; i+2 < s.NLig; i++ {
		s.ligAngle0 = append(s.ligAngle0, conf.Beads[i].Pos.Dist(conf.Beads[i+2].Pos))
	}
	s.forceBuf = make([]geom.Vec3, n)
	s.sigmaBuf = make([]float64, n)
	s.startLigand = append([]geom.Vec3(nil), ligandPos...)
	return s
}

// N returns the total bead count.
func (s *System) N() int { return s.NProt + s.NLig }

// SetWellDepths overrides the (well × bead-class) depth table the pocket
// forces use. The alchemical TI stage (TIES) injects λ-interpolated
// tables here; the slice must have one row per receptor well.
func (s *System) SetWellDepths(depths [][chem.NumBeadClasses]float64) {
	if len(depths) != len(s.wells) {
		panic("md: depth table size mismatch")
	}
	s.depths = depths
}

// WellDepths returns the active depth table (one row per well).
func (s *System) WellDepths() [][chem.NumBeadClasses]float64 { return s.depths }

// WellEnergy evaluates only the subsite-attraction energy of the current
// ligand coordinates under an arbitrary depth table — the ∂U/∂λ kernel of
// thermodynamic integration (U is linear in the depths).
func (s *System) WellEnergy(depths [][chem.NumBeadClasses]float64) float64 {
	var e float64
	ws := s.Par.WellScale
	for j := 0; j < s.NLig; j++ {
		p := s.Pos[s.NProt+j]
		class := s.Conf.Beads[j].Class
		for w := range s.wells {
			well := &s.wells[w]
			d2 := p.Dist2(well.Pos)
			sig2 := well.Sigma * well.Sigma
			e -= ws * depths[w][class] * math.Exp(-d2/(2*sig2))
		}
	}
	return e
}

// LigandPos returns a copy of the current ligand bead positions.
func (s *System) LigandPos() []geom.Vec3 {
	return append([]geom.Vec3(nil), s.Pos[s.NProt:]...)
}

// ProteinPos returns a copy of the current Cα positions.
func (s *System) ProteinPos() []geom.Vec3 {
	return append([]geom.Vec3(nil), s.Pos[:s.NProt]...)
}

// LigandRMSD returns the RMSD of the current ligand coordinates to the
// starting pose (no superposition: the pocket frame is fixed).
func (s *System) LigandRMSD() float64 {
	return geom.RMSD(s.Pos[s.NProt:], s.startLigand)
}

// ContactCount returns the number of protein-ligand bead pairs within
// cutoff: the paper's pragmatic LPC stability measure (§5.1.4, "number of
// heavy atom contacts between the protein and the ligand").
func (s *System) ContactCount(cutoff float64) int {
	c2 := cutoff * cutoff
	n := 0
	for i := 0; i < s.NProt; i++ {
		for j := 0; j < s.NLig; j++ {
			if s.Pos[i].Dist2(s.Pos[s.NProt+j]) <= c2 {
				n++
			}
		}
	}
	return n
}

// PocketDepth returns the distance from the ligand centroid to the pocket
// center (smaller = deeper insertion).
func (s *System) PocketDepth() float64 {
	return geom.Centroid(s.Pos[s.NProt:]).Dist(s.Target.PocketCenter())
}

// FlopsPerStep estimates floating-point operations for one force+integrate
// step, for Table 2/3 accounting: protein-ligand pairs dominate.
func (s *System) FlopsPerStep() int64 {
	pl := int64(s.NProt) * int64(s.NLig) * 30
	wells := int64(s.NLig) * int64(len(s.wells)) * 45
	bonded := int64(s.NProt+2*s.NLig) * 25
	integ := int64(s.N()) * 60
	return pl + wells + bonded + integ
}
