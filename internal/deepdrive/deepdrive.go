// Package deepdrive implements the S2 stage: DeepDriveMD-style ML-driven
// adaptive sampling (§5.1.4, §6.1.3). One S2 iteration consumes ensemble
// MD trajectories (from S3-CG), aggregates their Cα point clouds, trains
// the 3D-AAE on an 80/20 train/validation split, embeds every frame into
// the latent manifold, runs local-outlier-factor detection there, and
// selects the outlier conformations — the "interesting" protein-ligand
// complexes — that seed the expensive S3-FG stage.
//
// The adaptive loop (ML-steered simulation) is exposed both as a single
// Run (one pipeline iteration, as scheduled by EnTK) and as Iterate,
// which launches new MD from the selected outliers — the "steered
// advanced sampling" feedback of Fig. 1.
package deepdrive

import (
	"fmt"
	"sort"

	"impeccable/internal/aae"
	"impeccable/internal/esmacs"
	"impeccable/internal/geom"
	"impeccable/internal/latent"
	"impeccable/internal/md"
	"impeccable/internal/receptor"
	"impeccable/internal/xrand"
)

// Config controls one S2 iteration. Defaults follow §7.1.3: latent 64,
// batch 64, Gaussian prior σ 0.2, 80/20 split.
type Config struct {
	Epochs            int
	BatchSize         int
	MaxFrames         int     // subsample cap on the aggregated dataset
	ValFrac           float64 // validation fraction (0.2)
	LOFK              int     // LOF neighbourhood size
	OutliersPerLigand int     // conformations selected per compound (5)
	Seed              uint64
	AAE               aae.Config // zero value: derived from the backbone size
}

// DefaultConfig returns the §7.1.3 configuration scaled to substrate
// size.
func DefaultConfig() Config {
	return Config{
		Epochs:            20,
		BatchSize:         16,
		MaxFrames:         1024,
		ValFrac:           0.2,
		LOFK:              12,
		OutliersPerLigand: 5,
		Seed:              1,
	}
}

// FrameRef locates a frame in the aggregated dataset.
type FrameRef struct {
	MolID    uint64
	Replica  int
	Frame    int
	RMSD     float64 // ligand RMSD of the frame
	Contacts int
	Inter    float64 // protein-ligand interaction energy of the frame
}

// Selection is one outlier conformation chosen to seed S3-FG.
type Selection struct {
	Ref      FrameRef
	Ligand   []geom.Vec3 // ligand pose to restart from
	Latent   []float64
	LOFScore float64
}

// Report is the outcome of an S2 iteration.
type Report struct {
	Selections []Selection  // outliers, grouped per molecule, best first
	History    []aae.Losses // per-epoch training losses
	ValRecon   float64      // validation Chamfer loss
	Embeddings [][]float64  // latent embedding of every aggregated frame
	Refs       []FrameRef   // provenance of each embedding row
	LOF        []float64    // LOF score per frame
	Frames     int          // aggregated dataset size
	Flops      int64        // training FLOP estimate
}

// Driver runs S2 iterations against a target.
type Driver struct {
	Target *receptor.Target
	Cfg    Config
}

// NewDriver builds a driver with the default configuration.
func NewDriver(t *receptor.Target) *Driver {
	return &Driver{Target: t, Cfg: DefaultConfig()}
}

// Run performs one S2 iteration over the retained trajectories of the
// given CG estimates (each must have been produced with
// Runner.KeepTrajectories). It returns the outlier selections for S3-FG.
func (d *Driver) Run(ests []esmacs.Estimate) (*Report, error) {
	clouds, ligands, refs, err := d.aggregate(ests)
	if err != nil {
		return nil, err
	}
	rep := &Report{Refs: refs, Frames: len(clouds)}

	// Train/validation split.
	r := xrand.New(d.Cfg.Seed)
	perm := r.Perm(len(clouds))
	nVal := int(d.Cfg.ValFrac * float64(len(clouds)))
	if nVal < 1 {
		nVal = 1
	}
	train := make([][]geom.Vec3, 0, len(clouds)-nVal)
	val := make([][]geom.Vec3, 0, nVal)
	for i, pi := range perm {
		if i < nVal {
			val = append(val, clouds[pi])
		} else {
			train = append(train, clouds[pi])
		}
	}

	cfg := d.Cfg.AAE
	if cfg.NumPoints == 0 {
		cfg = aae.DefaultConfig(len(clouds[0]))
		cfg.Seed = d.Cfg.Seed
	}
	model := aae.New(cfg)
	rep.History = model.TrainEpochs(train, d.Cfg.Epochs, d.Cfg.BatchSize)
	rep.ValRecon = model.ValidationRecon(val)
	rep.Flops = model.TrainFlops(d.Cfg.BatchSize) *
		int64(d.Cfg.Epochs) * int64((len(train)+d.Cfg.BatchSize-1)/d.Cfg.BatchSize)

	// Embed every frame and find density outliers on the manifold.
	rep.Embeddings = model.EncodeBatch(clouds)
	k := d.Cfg.LOFK
	if k >= len(clouds) {
		k = len(clouds) - 1
	}
	if k < 1 {
		return nil, fmt.Errorf("deepdrive: dataset too small for LOF (%d frames)", len(clouds))
	}
	rep.LOF = latent.LOF(rep.Embeddings, k)

	// Per-molecule: keep the top OutliersPerLigand scoring frames,
	// restricted to frames with increased stability profiles (§5.1.4:
	// the 3D-AAE filters "those conformations that show increased
	// stability profiles in the LPCs", measured as heavy-atom contacts;
	// here: contacts at or above the molecule's median).
	perMol := map[uint64][]cand{}
	for i, ref := range refs {
		perMol[ref.MolID] = append(perMol[ref.MolID], cand{i, rep.LOF[i]})
	}
	molIDs := make([]uint64, 0, len(perMol))
	for id := range perMol {
		molIDs = append(molIDs, id)
	}
	sort.Slice(molIDs, func(a, b int) bool { return molIDs[a] < molIDs[b] })
	for _, id := range molIDs {
		cands := rankStable(perMol[id], refs)
		n := d.Cfg.OutliersPerLigand
		if n > len(cands) {
			n = len(cands)
		}
		for _, c := range cands[:n] {
			rep.Selections = append(rep.Selections, Selection{
				Ref:      refs[c.idx],
				Ligand:   ligands[c.idx],
				Latent:   rep.Embeddings[c.idx],
				LOFScore: c.score,
			})
		}
	}
	return rep, nil
}

// cand is one frame of a molecule: its index in the aggregated dataset
// and its LOF score.
type cand struct {
	idx   int
	score float64
}

// rankStable keeps the more favourably interacting half of one
// molecule's frames (lower interaction energy = increased stability
// profile) and ranks those by LOF outlier score, best first. Equal
// scores go to the earlier frame, so ties select the same frames
// whatever the sort algorithm does. It reorders cands in place.
func rankStable(cands []cand, refs []FrameRef) []cand {
	ee := make([]float64, len(cands))
	for i, c := range cands {
		ee[i] = refs[c.idx].Inter
	}
	sort.Float64s(ee)
	median := ee[len(ee)/2]
	stable := cands[:0]
	for _, c := range cands {
		if refs[c.idx].Inter <= median {
			stable = append(stable, c)
		}
	}
	if len(stable) > 0 {
		cands = stable
	}
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		return ca.score > cb.score || ca.score == cb.score && ca.idx < cb.idx
	})
	return cands
}

// aggregate flattens the retained trajectories into point clouds (protein
// Cα coordinates), ligand poses and provenance refs, subsampling uniformly
// to MaxFrames.
func (d *Driver) aggregate(ests []esmacs.Estimate) ([][]geom.Vec3, [][]geom.Vec3, []FrameRef, error) {
	var clouds, ligands [][]geom.Vec3
	var refs []FrameRef
	for _, est := range ests {
		if est.Trajs == nil {
			return nil, nil, nil, fmt.Errorf(
				"deepdrive: estimate for mol %x has no retained trajectories", est.MolID)
		}
		for rep, tr := range est.Trajs {
			for fi, fr := range tr.Frames {
				clouds = append(clouds, fr.Protein)
				ligands = append(ligands, fr.Ligand)
				refs = append(refs, FrameRef{
					MolID:    est.MolID,
					Replica:  rep,
					Frame:    fi,
					RMSD:     fr.LigandRMSD,
					Contacts: fr.Contacts,
					Inter:    fr.E.Inter,
				})
			}
		}
	}
	if len(clouds) == 0 {
		return nil, nil, nil, fmt.Errorf("deepdrive: no frames aggregated")
	}
	if len(clouds) > d.Cfg.MaxFrames {
		r := xrand.NewFrom(d.Cfg.Seed, 0xA66)
		keep := r.SampleK(len(clouds), d.Cfg.MaxFrames)
		sort.Ints(keep)
		nc := make([][]geom.Vec3, len(keep))
		nl := make([][]geom.Vec3, len(keep))
		nr := make([]FrameRef, len(keep))
		for i, k := range keep {
			nc[i], nl[i], nr[i] = clouds[k], ligands[k], refs[k]
		}
		clouds, ligands, refs = nc, nl, nr
	}
	return clouds, ligands, refs, nil
}

// Iterate performs the steered-sampling feedback: for each selection it
// restarts a short MD segment from the outlier conformation and returns
// the resulting trajectories (new data for the next S2 round). steps
// controls the segment length.
func (d *Driver) Iterate(sels []Selection, molOf func(uint64) *md.System, steps int) []*md.Trajectory {
	var out []*md.Trajectory
	integ := md.DefaultIntegrator()
	for i, sel := range sels {
		sys := molOf(sel.Ref.MolID)
		// Restart from the outlier's ligand pose.
		copy(sys.Pos[sys.NProt:], sel.Ligand)
		r := xrand.NewFrom(d.Cfg.Seed^sel.Ref.MolID, uint64(i))
		integ.InitVelocities(sys, r)
		tr := md.Run(sys, integ, md.RunConfig{
			Steps:      steps,
			SampleEach: 20,
			Record:     true,
		}, r)
		out = append(out, tr)
	}
	return out
}
