package campaign

import (
	"fmt"
	"runtime"

	"impeccable/internal/chem"
	"impeccable/internal/dock"
	"impeccable/internal/entk"
	"impeccable/internal/esmacs"
	"impeccable/internal/geom"
	"impeccable/internal/hpc"
	"impeccable/internal/pilot"
	"impeccable/internal/xrand"
)

// dockChunk is how many ligands one EnTK docking task docks.
const dockChunk = 32

// RunViaEnTK executes the same funnel as Run, but codified exactly as the
// paper deploys it (§6.1): an EnTK pipeline whose stages hold the
// concurrent tasks of each phase — docking chunks, one ESMACS ensemble
// per compound, the S2 learner, the FG refinements — scheduled by a real
// pilot over the local host's cores, with the adaptive S2→FG hand-off
// expressed as a PostExec hook that appends the FG stage from S2's
// selections at runtime.
//
// The science comes from the same stage helpers as Run's, so results,
// funnel counts and per-component flops are identical; what this path
// exercises is the production programming model: PST composition, pilot
// bin-packing, task concurrency limits and the runtime adaptivity the
// paper's §5.2.1 lists as an EnTK requirement.
func RunViaEnTK(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cores := cfg.Workers
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	// One "node" with the host's cores; every task declares cores so the
	// pilot bounds real concurrency.
	platform := hpc.Platform{Name: "localhost", Nodes: 1,
		Spec: hpc.NodeSpec{Cores: cores}}
	pl := pilot.NewPilot(platform, hpc.NewRealClock(), &pilot.RealExecutor{})
	am := entk.NewAppManager(pl)

	res := &Result{Counter: hpc.NewFlopCounter()}
	clk := newFunnelClock()
	r := xrand.New(cfg.Seed)
	lib := chem.NewLibrary("OZD", cfg.Seed^0x11B, 0, cfg.LibrarySize)
	ids := libraryIDs(lib)

	eng := newFunnelEngine(&cfg)
	eng.Workers = 1 // the pilot provides the parallelism
	runner, cgProto, fgProto := newESMACS(&cfg, 1)
	// ESMACS ensembles prefer 2 cores but must stay placeable on small
	// hosts — an over-declared task is unsatisfiable and fails fatally.
	esCores := min(2, cores)

	// Written by one stage's tasks or hook and read by later stages: the
	// pipeline orders them, so no lock is needed.
	trainMols := materialize(lib.Sample(r, min(cfg.TrainSize, lib.Size())))
	trainDocks := make([]dock.Result, len(trainMols))
	var (
		trainScores []float64
		dockMols    []*chem.Molecule
		cgMols      []*chem.Molecule
		topEsts     []esmacs.Estimate
		runErr      error
	)

	pipe := entk.NewPipeline("impeccable")

	// --- Stage 1: offline docking of the training sample, chunked. ---
	s1train := dockStage("S1-train", &cfg, eng, trainMols, trainDocks)
	s1train.PostExec = func(p *entk.Pipeline) {
		clk.mark("s1-train")
		trainScores = tallyDocks(res, trainDocks)
	}

	// --- Stage 2: ML1 training + library screening + selection. ---
	ml1 := entk.NewStage("ML1")
	ml1.AddTask(&entk.Task{
		Name: "train+screen", Cores: cores, Component: "ML1",
		Fn: func() {
			cfg.progress("ml1-train", 0.15)
			if cfg.canceled() {
				return
			}
			model, err := fitSurrogate(&cfg, res, trainMols, trainScores, nil)
			if err != nil {
				runErr = err
				return
			}
			clk.mark("ml1-train") // train/screen boundary inside the one ML1 task
			dockMols = screen(&cfg, res, model, ids, cores, 0)
		},
	})

	// --- Stage 3: production docking. Each later stage is added by its
	// predecessor's PostExec, since its tasks are only known at runtime. ---
	ml1.PostExec = func(p *entk.Pipeline) {
		clk.mark("ml1-screen")
		if cfg.canceled() || runErr != nil {
			return // stop appending stages; Wait drains what's in flight
		}
		cfg.progress("s1-dock", 0.45)
		res.DockResults = make([]dock.Result, len(dockMols))
		s1 := dockStage("S1", &cfg, eng, dockMols, res.DockResults)

		// --- Stage 4: S3-CG over the diverse docking winners. ---
		s1.PostExec = func(p *entk.Pipeline) {
			clk.mark("s1-dock")
			if cfg.canceled() {
				return
			}
			cfg.progress("s3-cg", 0.60)
			res.Funnel.Docked = len(res.DockResults) + len(trainDocks)
			tallyDocks(res, res.DockResults)
			var cgPoses [][]geom.Vec3
			cgMols, cgPoses = selectCG(&cfg, dockMols, res.DockResults)
			res.CGEstimates = make([]esmacs.Estimate, len(cgMols))
			cg := entk.NewStage("S3-CG")
			for i := range cgMols {
				cg.AddTask(&entk.Task{
					Name: fmt.Sprintf("esmacs-cg-%d", i), Cores: esCores, Component: "S3-CG",
					Fn: func() {
						if cfg.canceled() {
							return
						}
						est := runner.Estimate(cgMols[i], cgPoses[i], cgProto)
						res.CGEstimates[i] = est
						res.Counter.Add("S3-CG", est.Flops, 0, 1)
					},
				})
			}

			// --- Stage 5: S2 over the top CG compounds. ---
			cg.PostExec = func(p *entk.Pipeline) {
				clk.mark("s3-cg")
				if cfg.canceled() {
					return
				}
				cfg.progress("s2", 0.80)
				res.Funnel.CG = len(res.CGEstimates)
				topEsts = rankCG(&cfg, res)
				s2 := entk.NewStage("S2")
				s2.AddTask(&entk.Task{
					Name: "deepdrivemd", Cores: cores, Component: "S2",
					Fn: func() {
						if !cfg.canceled() {
							_, runErr = runS2(&cfg, res, topEsts)
						}
					},
				})

				// --- Stage 6, the adaptive hand-off: the FG stage is
				// appended only after S2 produced its selections
				// (§5.2.1 adaptivity). ---
				s2.PostExec = func(p *entk.Pipeline) {
					clk.mark("s2")
					if cfg.canceled() || runErr != nil {
						return
					}
					cfg.progress("s3-fg", 0.90)
					sels := res.S2Report.Selections
					res.FGEstimates = make([]esmacs.Estimate, len(sels))
					fg := entk.NewStage("S3-FG")
					for i, sel := range sels {
						fg.AddTask(&entk.Task{
							Name: fmt.Sprintf("esmacs-fg-%d", i), Cores: esCores, Component: "S3-FG",
							Fn: func() {
								if cfg.canceled() {
									return
								}
								est := runner.Estimate(chem.FromID(sel.Ref.MolID), sel.Ligand, fgProto)
								res.FGEstimates[i] = est
								res.Counter.Add("S3-FG", est.Flops, 0, 1)
							},
						})
					}
					fg.PostExec = func(p *entk.Pipeline) {
						clk.mark("s3-fg")
						res.Funnel.FG = len(res.FGEstimates)
					}
					p.AddStage(fg)
				}
				p.AddStage(s2)
			}
			p.AddStage(cg)
		}
		p.AddStage(s1)
	}

	pipe.AddStage(s1train).AddStage(ml1)
	cfg.progress("s1-train", 0.02)
	am.Run(pipe)
	am.Wait()

	if cfg.canceled() {
		return nil, ErrCanceled
	}
	if runErr != nil {
		return nil, runErr
	}
	// A task the pilot rejected as unsatisfiable "completed" without
	// running its Fn; surfacing it here keeps its zero-valued output
	// from masquerading as science.
	if failed := pl.FailedTasks(); len(failed) > 0 {
		return nil, fmt.Errorf("campaign: entk run: %d tasks failed (first: %s: %v)",
			len(failed), failed[0].Name, failed[0].Err)
	}
	res.Top = compareTop(cfg.Target, topEsts, res.FGEstimates)
	res.ScientificYield = yield(cfg.Target, ids, cgMols)
	res.PilotTrace = pl.UtilizationTrace()
	clk.finish(&res.Funnel)
	cfg.progress("done", 1.0)
	return res, nil
}

// dockStage builds an EnTK stage of single-core tasks that dock mols
// into out, dockChunk ligands per task.
func dockStage(name string, cfg *Config, eng *dock.Engine, mols []*chem.Molecule, out []dock.Result) *entk.Stage {
	s := entk.NewStage(name)
	for at := 0; at < len(mols); at += dockChunk {
		end := min(at+dockChunk, len(mols))
		s.AddTask(&entk.Task{
			Name: fmt.Sprintf("dock-%d", at), Cores: 1, Component: "S1",
			Fn: func() {
				for i := at; i < end; i++ {
					if cfg.canceled() {
						return
					}
					out[i] = eng.DockOne(mols[i])
				}
			},
		})
	}
	return s
}
