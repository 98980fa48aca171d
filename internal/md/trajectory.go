package md

import (
	"impeccable/internal/geom"
	"impeccable/internal/xrand"
)

// Frame is one saved trajectory snapshot.
type Frame struct {
	Step       int
	Protein    []geom.Vec3 // Cα coordinates (the AAE point cloud input)
	Ligand     []geom.Vec3
	E          Energies
	LigandRMSD float64 // vs the starting pose
	Contacts   int     // protein-ligand contacts within ContactCutoff
}

// ContactCutoff is the heavy-atom contact distance (Å) used for the LPC
// stability measure.
const ContactCutoff = 5.0

// Trajectory is an ordered sequence of frames from one replica.
type Trajectory struct {
	MolID  uint64
	Frames []Frame
}

// RunConfig drives a single simulation segment.
type RunConfig struct {
	Steps      int  // number of integration steps
	SampleEach int  // save a frame every this many steps (0 = no frames)
	Record     bool // whether to record frames at all
}

// Run advances the system, recording frames per cfg, and returns the
// trajectory (empty if Record is false).
func Run(s *System, in Integrator, cfg RunConfig, r *xrand.RNG) *Trajectory {
	tr := &Trajectory{MolID: s.Mol.ID}
	if cfg.Steps < 1 {
		return tr
	}
	// Each step's closing forces open the next one, so the force field
	// is evaluated once per step plus once here.
	o := in.thermostat(s)
	f, _ := s.Forces()
	for step := 1; step <= cfg.Steps; step++ {
		var e Energies
		f, e = in.advance(s, r, f, o)
		if cfg.Record && cfg.SampleEach > 0 && step%cfg.SampleEach == 0 {
			tr.Frames = append(tr.Frames, Frame{
				Step:       step,
				Protein:    s.ProteinPos(),
				Ligand:     s.LigandPos(),
				E:          e,
				LigandRMSD: s.LigandRMSD(),
				Contacts:   s.ContactCount(ContactCutoff),
			})
		}
	}
	return tr
}

// MeanInterEnergy returns the trajectory-average protein-ligand
// interaction energy (the MMPBSA-style enthalpic core).
func (t *Trajectory) MeanInterEnergy() float64 {
	if len(t.Frames) == 0 {
		return 0
	}
	var s float64
	for _, fr := range t.Frames {
		s += fr.E.Inter
	}
	return s / float64(len(t.Frames))
}

// MeanRMSD returns the trajectory-average ligand RMSD.
func (t *Trajectory) MeanRMSD() float64 {
	if len(t.Frames) == 0 {
		return 0
	}
	var s float64
	for _, fr := range t.Frames {
		s += fr.LigandRMSD
	}
	return s / float64(len(t.Frames))
}

// MaxRMSD returns the maximum ligand RMSD over the trajectory.
func (t *Trajectory) MaxRMSD() float64 {
	var m float64
	for _, fr := range t.Frames {
		if fr.LigandRMSD > m {
			m = fr.LigandRMSD
		}
	}
	return m
}
