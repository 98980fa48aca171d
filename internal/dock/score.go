// Package dock implements the S1 stage: high-throughput protein-ligand
// docking. It is a faithful algorithmic port of the AutoDock-GPU design
// the paper describes (§5.1.1): a Lamarckian genetic algorithm (LGA) over
// a pose genome (translation, rigid rotation, rotatable torsions), with
// two interchangeable local-search methods — the legacy Solis-Wets random
// walk and the gradient-based ADADELTA refiner — and multi-run docking
// that keeps the best-scoring pose. GPU compute-unit parallelism maps to a
// goroutine worker pool; receptor-reuse (dock many ligands to one grid) is
// preserved by precomputing per-molecule well-depth tables against a
// shared Target.
package dock

import (
	"math"

	"impeccable/internal/chem"
	"impeccable/internal/geom"
	"impeccable/internal/receptor"
)

// ScoreFunc evaluates the docking energy of a ligand pose against a
// receptor. It owns per-molecule precomputed state so repeated evaluation
// (the inner loop of the LGA) allocates nothing.
type ScoreFunc struct {
	Target *receptor.Target
	Conf   *chem.Conformer

	depths [][chem.NumBeadClasses]float64 // per (well, class) depth
	wells  []receptor.Well
	buf    []geom.Vec3 // scratch positions
	probe  []float64   // Gradient's perturbed genome
	evals  int64       // energy evaluations performed
}

// Energy-model constants (kcal/mol-like units).
const (
	clashK      = 4.0  // protein body penetration stiffness
	boxK        = 0.6  // restraint pulling strays back to the pocket
	boxSlack    = 4.0  // Å beyond pocket radius before restraint engages
	elecK       = 2.0  // screened electrostatic prefactor
	selfClashK  = 2.0  // intraligand overlap stiffness
	torsStrainK = 0.2  // torsional strain per rotatable bond
	desolvK     = 0.25 // polar-group desolvation penalty inside cavity
)

// NewScoreFunc prepares a scoring function for one (target, molecule)
// pair.
func NewScoreFunc(t *receptor.Target, m *chem.Molecule) *ScoreFunc {
	conf := chem.NewConformer(m)
	return &ScoreFunc{
		Target: t,
		Conf:   conf,
		depths: t.WellDepths(m),
		wells:  t.Wells(),
		buf:    make([]geom.Vec3, len(conf.Beads)),
	}
}

// Evals returns the number of energy evaluations performed so far.
func (s *ScoreFunc) Evals() int64 { return s.evals }

// NumTorsions returns the torsional dimensionality of the genome.
func (s *ScoreFunc) NumTorsions() int { return s.Conf.NumTorsions() }

// GenomeLen returns the pose genome length: 3 translation + 4 quaternion +
// torsions.
func (s *ScoreFunc) GenomeLen() int { return 7 + s.NumTorsions() }

// decode splits a genome into its pose components. The quaternion part is
// normalized on decode so the genome stays a free-floating real vector
// (as in AutoDock-GPU's genotype handling).
func decode(g []float64) (t geom.Vec3, q geom.Quat, tors []float64) {
	t = geom.Vec3{X: g[0], Y: g[1], Z: g[2]}
	q = geom.Quat{W: g[3], X: g[4], Y: g[5], Z: g[6]}.Normalize()
	tors = g[7:]
	return t, q, tors
}

// Score returns the docking energy of the pose genome. Lower is better.
func (s *ScoreFunc) Score(g []float64) float64 {
	s.evals++
	t, q, tors := decode(g)
	s.buf = s.Conf.Apply(t, q, tors, s.buf)
	return s.intermolecular(s.buf) + s.intramolecular(s.buf, tors)
}

// intermolecular sums the receptor-ligand terms.
func (s *ScoreFunc) intermolecular(pos []geom.Vec3) float64 {
	var e float64
	pc := s.Target.PocketCenter()
	pr := s.Target.PocketRadius()
	for i, p := range pos {
		bead := s.Conf.Beads[i]
		// Subsite attraction + screened electrostatics. Cryptic
		// subsites are closed in the crystal structure and invisible
		// to docking — only the MD stages see them.
		for w := range s.wells {
			well := &s.wells[w]
			if well.Cryptic {
				continue
			}
			d2 := p.Dist2(well.Pos)
			sig2 := well.Sigma * well.Sigma
			e -= s.depths[w][bead.Class] * math.Exp(-d2/(2*sig2))
			if bead.Charge != 0 && well.Charge != 0 {
				d := math.Sqrt(d2)
				e += elecK * bead.Charge * well.Charge * math.Exp(-d/4) / (d + 1)
			}
		}
		// Steric clash with the protein body.
		if pen := s.Target.BodyPenetration(p); pen > 0 {
			e += clashK * pen * pen
		}
		// Soft box restraint keeping the search near the pocket.
		if d := p.Dist(pc); d > pr+boxSlack {
			excess := d - pr - boxSlack
			e += boxK * excess * excess
		}
		// Desolvation: polar/charged beads buried in the cavity but
		// not engaged by any well pay a penalty.
		if bead.Class == chem.BeadPolar || bead.Class == chem.BeadDonor ||
			bead.Class == chem.BeadAcceptor {
			if p.Dist(pc) < pr {
				e += desolvK
			}
		}
	}
	return e
}

// intramolecular sums ligand self-energy: soft-core overlap between beads
// separated by more than two positions in the chain, plus torsional
// strain.
func (s *ScoreFunc) intramolecular(pos []geom.Vec3, tors []float64) float64 {
	var e float64
	for i := 0; i < len(pos); i++ {
		for j := i + 3; j < len(pos); j++ {
			rr := s.Conf.Beads[i].Radius + s.Conf.Beads[j].Radius
			if d := pos[i].Dist(pos[j]); d < rr {
				ov := rr - d
				e += selfClashK * ov * ov
			}
		}
	}
	for _, a := range tors {
		e += torsStrainK * (1 - math.Cos(a))
	}
	return e
}

// Gradient computes the numerical gradient of Score at g by central
// differences into grad (len == GenomeLen). AutoDock-GPU differentiates
// its scoring grid analytically; with an analytic receptor model central
// differences give the same search behaviour at 2·n evaluations per
// gradient, which the FLOP model accounts for.
func (s *ScoreFunc) Gradient(g, grad []float64) {
	const h = 1e-4
	if cap(s.probe) < len(g) {
		s.probe = make([]float64, len(g))
	}
	tmp := s.probe[:len(g)]
	copy(tmp, g)
	for k := range g {
		tmp[k] = g[k] + h
		ep := s.Score(tmp)
		tmp[k] = g[k] - h
		em := s.Score(tmp)
		tmp[k] = g[k]
		grad[k] = (ep - em) / (2 * h)
	}
}

// PoseBeads returns the ligand bead positions for a pose genome — the
// docked coordinates handed to the MD stages as their starting structure.
func (s *ScoreFunc) PoseBeads(g []float64) []geom.Vec3 {
	t, q, tors := decode(g)
	return s.Conf.Apply(t, q, tors, nil)
}

// FlopsPerEval estimates floating-point operations per energy evaluation,
// used by the hpc package's FLOP accounting (Table 3 methodology, which
// counts flops per representative work unit).
func (s *ScoreFunc) FlopsPerEval() int64 {
	beads := int64(len(s.Conf.Beads))
	wells := int64(len(s.wells))
	// ~40 flops per bead-well pair, ~25 per bead for clash/box terms,
	// ~12 per intraligand pair, ~20 per torsion for pose transform.
	return beads*wells*40 + beads*25 + (beads*beads/2)*12 + int64(s.NumTorsions())*20
}
