// Package receptor models the protein targets of the campaign: the four
// SARS-CoV-2 proteins the paper screens against (3CLPro, PLPro, ADRP,
// NSP15). A Target carries
//
//   - a pocket geometry (binding cavity carved into a spherical protein
//     body, with several attraction subsites), which the docking engine
//     (S1) searches and the MD substrate (S2/S3) embeds the ligand in;
//
//   - a hidden pharmacophore weight vector defining the ground-truth
//     binding affinity of every molecule. The paper cannot know its ground
//     truth; the reproduction can, which is what lets EXPERIMENTS.md report
//     "scientific performance" (effective ligands found per unit time)
//     exactly.
//
// The physics stages never read TrueAffinity directly: the docking scoring
// function and the MD force field couple to the molecule only through
// per-well depths derived from the same hidden vectors, so physics-based
// estimates are noisy, biased observations of the truth — with accuracy
// improving from docking to CG-ESMACS to FG-ESMACS exactly as in the
// paper's Table 2 cost/accuracy ladder.
package receptor

import (
	"math"

	"impeccable/internal/chem"
	"impeccable/internal/geom"
	"impeccable/internal/xrand"
)

// Well is an attraction subsite inside the binding pocket (an H-bonding
// residue cluster, a hydrophobic shelf, ...).
type Well struct {
	Pos      geom.Vec3
	Sigma    float64                      // interaction range (Å)
	ClassAff [chem.NumBeadClasses]float64 // base well depth per bead class
	Vec      [chem.PharmaDim]float64      // pharmacophore coupling direction
	Charge   float64                      // electrostatic monopole
	// Cryptic marks a subsite closed in the crystal structure: invisible
	// to docking (S1 scores against the rigid crystal receptor) but
	// present in dynamics (S2/S3), where it opens transiently. Cryptic
	// sites are what make the S2→FG feedback loop scientifically
	// productive (Figs. 5E, 6).
	Cryptic bool
}

// Target is a receptor with a single designed binding region, matching the
// docking protocol input of the paper (§3.2 S1).
type Target struct {
	Name  string
	PDBID string

	seed          uint64
	weights       [chem.PharmaDim]float64
	wells         []Well
	pocketCenter  geom.Vec3
	pocketRadius  float64
	surfaceRadius float64
	backbone      []geom.Vec3
}

// BackboneLen is the number of Cα beads in every generated receptor
// backbone — 309, the Cα count the paper reports for PLPro (§7.1.3).
const BackboneLen = 309

// NewTarget builds a deterministic synthetic receptor.
func NewTarget(name, pdbID string, seed uint64) *Target {
	t := &Target{
		Name:          name,
		PDBID:         pdbID,
		seed:          seed,
		surfaceRadius: 14,
		pocketRadius:  5.0,
	}
	r := xrand.NewFrom(seed, 0x7EC7)
	// Hidden affinity direction: unit-ish vector in pharmacophore space.
	var norm float64
	for k := range t.weights {
		t.weights[k] = r.NormFloat64()
		norm += t.weights[k] * t.weights[k]
	}
	norm = math.Sqrt(norm)
	for k := range t.weights {
		t.weights[k] /= norm
	}
	// Pocket along +x, mouth at the surface, center inside the body.
	t.pocketCenter = geom.Vec3{X: 9}
	// Four to six subsites scattered through the cavity.
	nw := 4 + r.Intn(3)
	for w := 0; w < nw; w++ {
		well := Well{
			Pos: t.pocketCenter.Add(geom.Vec3{
				X: r.Range(-2.5, 2.5),
				Y: r.Range(-2.5, 2.5),
				Z: r.Range(-2.5, 2.5),
			}),
			Sigma:  r.Range(1.2, 2.2),
			Charge: r.Range(-0.5, 0.5),
		}
		for c := 0; c < int(chem.NumBeadClasses); c++ {
			well.ClassAff[c] = r.Range(0.1, 1.4)
		}
		// Couple each well to the hidden direction plus a private
		// perturbation: molecules aligned with the target's weights
		// see uniformly deeper wells.
		for k := range well.Vec {
			well.Vec[k] = t.weights[k] + 0.35*r.NormFloat64()
		}
		t.wells = append(t.wells, well)
	}
	// Cryptic subsite: one deep, narrow well at the cavity bottom. Short
	// CG simulations visit it only transiently; conformations that found
	// it show markedly lower interaction energy, get selected by S2's
	// stability/outlier filter, and seed FG runs that stay bound there —
	// the "compound moving further into the binding site" mechanism the
	// paper reports in Fig. 5E and quantifies in Fig. 6.
	deepDir := geom.Vec3{X: r.Range(0.2, 1), Y: r.Norm(0, 0.3), Z: r.Norm(0, 0.3)}.Unit()
	cryptic := Well{
		Pos:     t.pocketCenter.Add(deepDir.Scale(r.Range(2.8, 3.4))),
		Sigma:   r.Range(0.9, 1.2),
		Charge:  r.Range(-0.3, 0.3),
		Cryptic: true,
	}
	for c := 0; c < int(chem.NumBeadClasses); c++ {
		cryptic.ClassAff[c] = r.Range(1.4, 2.4)
	}
	for k := range cryptic.Vec {
		cryptic.Vec[k] = t.weights[k] + 0.25*r.NormFloat64()
	}
	t.wells = append(t.wells, cryptic)
	t.backbone = generateBackbone(r.Split(), t.pocketCenter, t.surfaceRadius)
	return t
}

// StandardTargets returns the four main SARS-CoV-2 targets of §7.1.1.
func StandardTargets() []*Target {
	return []*Target{
		NewTarget("3CLPro", "6LU7", 0x3C1),
		NewTarget("PLPro", "6W9C", 0x917),
		NewTarget("ADRP", "6W02", 0xAD4),
		NewTarget("NSP15", "6VWW", 0x5F1),
	}
}

// PLPro returns the papain-like protease target used for the paper's
// headline vignette (PDB 6W9C, Figs. 4–6).
func PLPro() *Target { return StandardTargets()[1] }

// Wells exposes all pocket subsites, including cryptic ones (the
// landscape dynamics sees).
func (t *Target) Wells() []Well { return t.wells }

// PocketCenter returns the cavity center; the docking search box and MD
// funnel potential are anchored here.
func (t *Target) PocketCenter() geom.Vec3 { return t.pocketCenter }

// PocketRadius returns the cavity radius (Å).
func (t *Target) PocketRadius() float64 { return t.pocketRadius }

// SurfaceRadius returns the protein body radius (Å).
func (t *Target) SurfaceRadius() float64 { return t.surfaceRadius }

// Backbone returns the receptor's Cα skeleton (BackboneLen beads),
// used by the MD substrate and the 3D-AAE point clouds.
func (t *Target) Backbone() []geom.Vec3 { return t.backbone }

// affinityScore is the scalar structure-activity landscape: hidden
// direction response plus a mild quadratic term so the landscape is not
// linear in features.
func (t *Target) affinityScore(m *chem.Molecule) float64 {
	p := m.Pharma()
	var s, q float64
	for k := 0; k < chem.PharmaDim; k++ {
		s += t.weights[k] * p[k]
		q += p[k] * p[k]
	}
	return s - 0.010*q
}

// TrueAffinity returns the ground-truth binding free energy (kcal/mol) of
// molecule m against this target. More negative is better. Values fall
// mostly in [-14, 0] with strong binders in the deep tail, mirroring
// experimental dissociation-constant scales.
func (t *Target) TrueAffinity(m *chem.Molecule) float64 {
	s := t.affinityScore(m)
	// Map the roughly unit-normal landscape score onto kcal/mol, then
	// squash smoothly into (-18, 2) — a smooth map keeps the landscape
	// injective (no degenerate plateau of identical affinities) while
	// bounding it to experimental scales.
	dg := -6 - 3.2*s
	return -8 + 10*math.Tanh((dg+8)/10)
}

// WellDepths precomputes, for molecule m, the depth of every (well, bead
// class) pair. The docking scoring function and the MD pocket forces both
// consume this table, which is where the hidden structure-activity signal
// enters the physics: wells are deeper for molecules aligned with the
// target's pharmacophore.
func (t *Target) WellDepths(m *chem.Molecule) [][chem.NumBeadClasses]float64 {
	p := m.Pharma()
	out := make([][chem.NumBeadClasses]float64, len(t.wells))
	for w, well := range t.wells {
		var dot float64
		for k := 0; k < chem.PharmaDim; k++ {
			dot += well.Vec[k] * p[k]
		}
		gate := sigmoid(0.8 * dot) // (0,1): molecule/well compatibility
		for c := 0; c < int(chem.NumBeadClasses); c++ {
			out[w][c] = well.ClassAff[c] * (0.3 + 1.7*gate)
		}
	}
	return out
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// InsideBody reports whether point x lies inside the protein body
// (excluding the carved pocket cavity): the clash region for docking.
func (t *Target) InsideBody(x geom.Vec3) bool {
	return x.Norm() < t.surfaceRadius && x.Dist(t.pocketCenter) > t.pocketRadius
}

// BodyPenetration returns the depth (Å) by which x penetrates the protein
// body, or 0 if x is in solvent or in the cavity. The measure is smooth
// enough for gradient-based local search (ADADELTA in the docking engine).
func (t *Target) BodyPenetration(x geom.Vec3) float64 {
	d := x.Norm()
	if d >= t.surfaceRadius {
		return 0
	}
	cav := x.Dist(t.pocketCenter)
	if cav <= t.pocketRadius {
		return 0
	}
	pen := t.surfaceRadius - d
	// Soften near the cavity wall so the boundary is continuous.
	wall := cav - t.pocketRadius
	if wall < pen {
		pen = wall
	}
	return pen
}

// generateBackbone grows a compact self-avoiding-ish Cα walk filling the
// protein body while keeping out of the pocket cavity.
func generateBackbone(r *xrand.RNG, pocket geom.Vec3, surfaceR float64) []geom.Vec3 {
	const bond = 3.8 // Cα–Cα virtual bond length (Å)
	pts := make([]geom.Vec3, 0, BackboneLen)
	cur := geom.Vec3{X: -surfaceR * 0.5}
	pts = append(pts, cur)
	dir := geom.Vec3{X: 0, Y: 1, Z: 0}
	for len(pts) < BackboneLen {
		// Propose a bend of the current direction.
		axis := geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}
		prop := geom.AxisAngle(axis, r.Range(0.2, 1.0)).Rotate(dir).Unit()
		next := cur.Add(prop.Scale(bond))
		// Reflect back toward the center if leaving the body; steer
		// away from the cavity so the pocket stays open.
		if next.Norm() > surfaceR*0.92 {
			prop = prop.Sub(next.Unit().Scale(2 * prop.Dot(next.Unit()))).Unit()
			next = cur.Add(prop.Scale(bond))
		}
		if next.Dist(pocket) < 6.0 {
			away := next.Sub(pocket).Unit()
			next = next.Add(away.Scale(6.0 - next.Dist(pocket)))
		}
		pts = append(pts, next)
		dir = next.Sub(cur).Unit()
		cur = next
	}
	return pts
}
