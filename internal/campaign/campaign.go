// Package campaign integrates the stages into the IMPECCABLE funnel of
// Fig. 1: ML1 surrogate filtering → S1 docking → S3-CG ensemble free
// energies → S2 latent-space outlier selection → S3-FG refined free
// energies, with feedback (docking results retrain the surrogate, S2
// outliers seed FG). At each stage only the most promising candidates
// advance, yielding the N-deep pipeline whose methods span six orders of
// magnitude in per-ligand cost (Table 2).
//
// Because the substrate has a ground-truth oracle, the campaign can also
// report *scientific performance* — the paper's second metric, effective
// ligands sampled per unit time — exactly, as the recovery of true
// top-binders by each stage.
package campaign

import (
	"errors"
	"fmt"
	"sort"

	"impeccable/internal/chem"
	"impeccable/internal/deepdrive"
	"impeccable/internal/dock"
	"impeccable/internal/esmacs"
	"impeccable/internal/geom"
	"impeccable/internal/hpc"
	"impeccable/internal/pilot"
	"impeccable/internal/receptor"
	"impeccable/internal/surrogate"
	"impeccable/internal/xrand"
)

// Config sizes one campaign iteration. The ratios mirror §7.1: surrogate
// screens the library and passes ~1 % to docking (plus a 15-20 % random
// resample of lower ranks to avoid blind spots), docking winners are
// diversity-reduced for CG-ESMACS, S2 selects outlier conformations of
// the top compounds, FG-ESMACS refines those.
type Config struct {
	Target *receptor.Target

	LibrarySize   int     // compounds screened by ML1
	TrainSize     int     // compounds docked offline to train ML1
	TopFrac       float64 // fraction of library passed to S1 (0.01)
	ResampleFrac  float64 // extra lower-ranked fraction resampled (0.15)
	CGCount       int     // compounds advanced to S3-CG
	TopCompounds  int     // compounds advanced from CG to S2/FG (5)
	OutliersPer   int     // conformations per compound for FG (5)
	Seed          uint64
	Workers       int
	FastProtocols bool // shrink MD durations (tests / laptop examples)

	// Streaming routes Run/RunWithPool through the streaming dataflow:
	// ML1 screening and S1 docking overlap through bounded channels (the
	// deterministic resample set docks during ML1 training, and running
	// top-K survivors dock while the screen is still scoring the
	// library). The scientific output is byte-identical to the
	// sequential path — only the schedule changes. See RunStreaming.
	Streaming bool

	// DockParams defaults to dock.DefaultParams with Runs reduced to 2
	// for throughput.
	DockParams *dock.Params

	// DockCache, when non-nil, memoizes S1 docking results by molecule
	// structure so overlapping campaigns against the same target skip
	// repeated LGA runs (the service layer injects a sharded shared
	// cache here).
	DockCache dock.ScoreCache

	// Features, when non-nil, supplies memoized feature vectors for the
	// ML1 library screen instead of materializing each molecule.
	Features surrogate.FeatureSource

	// Cancel, when non-nil, aborts the campaign between stages (and
	// between ligands inside the docking batches) once closed; Run then
	// returns ErrCanceled.
	Cancel <-chan struct{}

	// Progress, when non-nil, is called at stage boundaries with the
	// stage name and the approximate completed fraction of the campaign.
	// The streaming path additionally reports interleaved mid-stage
	// updates ("ml1-screen" and "s1-dock" alternate while they overlap),
	// and may call it from multiple pipeline goroutines — implementations
	// must be safe for concurrent use.
	Progress func(stage string, frac float64)
}

// ErrCanceled is returned by Run/RunWithPool when Config.Cancel closes
// before the campaign completes.
var ErrCanceled = errors.New("campaign: canceled")

// canceled reports whether the config's cancel channel has closed.
func (cfg *Config) canceled() bool {
	if cfg.Cancel == nil {
		return false
	}
	select {
	case <-cfg.Cancel:
		return true
	default:
		return false
	}
}

// progress reports a stage boundary to the optional observer.
func (cfg *Config) progress(stage string, frac float64) {
	if cfg.Progress != nil {
		cfg.Progress(stage, frac)
	}
}

// DefaultConfig returns a laptop-scale configuration preserving the
// paper's stage ratios.
func DefaultConfig(t *receptor.Target) Config {
	return Config{
		Target:       t,
		LibrarySize:  4000,
		TrainSize:    600,
		TopFrac:      0.01,
		ResampleFrac: 0.15,
		CGCount:      12,
		TopCompounds: 5,
		OutliersPer:  5,
		Seed:         1,
	}
}

// FunnelStats counts compounds at each stage.
type FunnelStats struct {
	Screened int // ML1 inference count
	Docked   int // S1 count (training + selected)
	CG       int // S3-CG count
	S2Frames int // frames aggregated by S2
	FG       int // S3-FG conformations

	// DockEvals is the total energy evaluations actually spent in S1
	// (training + selected docks). Cache hits contribute zero, so a
	// campaign warmed by a shared score cache shows a lower count than
	// the cold campaign that populated it.
	DockEvals int64
	// DockCacheHits counts S1 docks served from the injected score
	// cache without spending any evaluations.
	DockCacheHits int

	// SpeculativeDocks/SpeculativeEvals count docking work the streaming
	// path spent on running-top-K candidates that a later chunk evicted
	// before the final selection — the price of overlapping S1 with the
	// ML1 screen. Excluded from DockEvals so the consumed-work ledger
	// stays path-invariant; always zero on the sequential paths.
	SpeculativeDocks int
	SpeculativeEvals int64

	// Timings records each stage's wall-clock window as offsets from the
	// campaign start. Sequential paths produce back-to-back windows; the
	// streaming path's s1-dock window overlaps ml1-train and ml1-screen.
	Timings []StageTiming
	// WallSeconds is the campaign's total wall-clock time.
	WallSeconds float64
	// OverlapRatio is the sum of per-stage wall-clock over WallSeconds:
	// ≈1 when stages run back-to-back, >1 when stages overlap.
	OverlapRatio float64
}

// StageTiming is one funnel stage's wall-clock window, in seconds
// relative to the campaign start.
type StageTiming struct {
	Stage   string  `json:"stage"`
	StartS  float64 `json:"start_s"`
	Seconds float64 `json:"seconds"`
}

// FunnelCounts is the deterministic projection of FunnelStats: the
// fields that depend only on (seed, config), never on scheduling. For a
// fixed config these are byte-identical across Run, RunViaEnTK and the
// streaming path — the golden-funnel regression contract.
type FunnelCounts struct {
	Screened      int
	Docked        int
	CG            int
	S2Frames      int
	FG            int
	DockEvals     int64
	DockCacheHits int
}

// Counts extracts the path-invariant projection.
func (f FunnelStats) Counts() FunnelCounts {
	return FunnelCounts{
		Screened:      f.Screened,
		Docked:        f.Docked,
		CG:            f.CG,
		S2Frames:      f.S2Frames,
		FG:            f.FG,
		DockEvals:     f.DockEvals,
		DockCacheHits: f.DockCacheHits,
	}
}

// TopComparison pairs the CG and FG estimates of one top compound
// (the Fig. 6 data).
type TopComparison struct {
	MolID  uint64
	CG, FG float64 // ΔG estimates (kcal/mol)
	CGErr  float64
	FGErr  float64
	Truth  float64 // ground-truth affinity (oracle; reproduction-only)
}

// Result is everything one campaign iteration produced.
type Result struct {
	TrainReport surrogate.Report
	Model       *surrogate.Model
	RES         *surrogate.RES

	DockResults []dock.Result
	CGEstimates []esmacs.Estimate
	S2Report    *deepdrive.Report
	FGEstimates []esmacs.Estimate
	Top         []TopComparison

	Funnel  FunnelStats
	Counter *hpc.FlopCounter
	// PilotTrace is the pilot utilization trace when the campaign ran
	// through the EnTK/pilot path (RunViaEnTK); nil otherwise.
	PilotTrace []pilot.UtilSample

	// ScientificYield is the fraction of the library's true top-1 %
	// binders present among the compounds that reached S3-CG — the
	// oracle-measured enrichment of the funnel.
	ScientificYield float64
}

// Pool accumulates docking-labelled molecules across campaign iterations
// — the training memory of the active-learning loop (§5.1: "Each
// successive iteration of IMPECCABLE thus provides successive yields of
// LPCs that could be modeled as an active learning pipeline").
type Pool struct {
	Mols   []*chem.Molecule
	Scores []float64
}

// Add appends labelled compounds to the pool.
func (p *Pool) Add(mols []*chem.Molecule, scores []float64) {
	p.Mols = append(p.Mols, mols...)
	p.Scores = append(p.Scores, scores...)
}

// Size returns the number of labelled compounds.
func (p *Pool) Size() int { return len(p.Mols) }

// Run executes one campaign iteration.
func Run(cfg Config) (*Result, error) { return RunWithPool(cfg, nil, 0) }

// RunStreaming executes one campaign iteration through the streaming
// dataflow (equivalent to setting Config.Streaming and calling Run).
func RunStreaming(cfg Config) (*Result, error) {
	cfg.Streaming = true
	return RunWithPool(cfg, nil, 0)
}

// RunWithPool executes one campaign iteration whose surrogate trains on
// the accumulated pool in addition to this iteration's offline docking
// sample, screening the library window starting at libOffset. Docked
// compounds and their scores are appended to the pool (when non-nil) for
// the next iteration.
func RunWithPool(cfg Config, pool *Pool, libOffset uint64) (*Result, error) {
	if cfg.Streaming {
		return runStreamingWithPool(cfg, pool, libOffset)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &Result{Counter: hpc.NewFlopCounter()}
	clk := newFunnelClock()
	r := xrand.New(cfg.Seed + libOffset)
	lib := chem.NewLibrary("OZD", cfg.Seed^0x11B, libOffset, cfg.LibrarySize)

	// --- Offline docking of a training sample (pre-training data for
	// ML1, §6.1.1: "pre-trained on 500,000 randomly selected samples
	// from the OZD ligand dataset"). ---
	clk.start("s1-train")
	cfg.progress("s1-train", 0.02)
	eng := newFunnelEngine(&cfg)
	trainIDs := lib.Sample(r, min(cfg.TrainSize, lib.Size()))
	trainMols := materialize(trainIDs)
	trainDocks := eng.DockBatch(trainMols)
	clk.stop("s1-train")
	if cfg.canceled() {
		return nil, ErrCanceled
	}
	trainScores, dockFlops := tallyDocks(res, trainDocks)
	res.Counter.Add("S1", dockFlops, 0, int64(len(trainDocks)))

	// --- ML1 training: this iteration's sample plus the accumulated
	// active-learning pool. ---
	clk.start("ml1-train")
	cfg.progress("ml1-train", 0.15)
	model, err := fitSurrogate(&cfg, res, trainMols, trainScores, pool)
	if err != nil {
		return nil, err
	}
	clk.stop("ml1-train")

	// --- ML1 inference over the library. ---
	clk.start("ml1-screen")
	cfg.progress("ml1-screen", 0.30)
	if cfg.canceled() {
		return nil, ErrCanceled
	}
	ids := libraryIDs(lib)
	preds := model.PredictIDsFrom(ids, cfg.Workers, cfg.Features)
	res.Funnel.Screened = len(ids)
	res.Counter.Add("ML1", model.InferenceFlops(len(ids)), 0, int64(len(ids)))
	clk.stop("ml1-screen")

	// --- Selection for S1, then the production docking batch. ---
	dockIdx := selectDockIdx(&cfg, preds, libOffset)
	dockMols := make([]*chem.Molecule, len(dockIdx))
	for i, j := range dockIdx {
		dockMols[i] = chem.FromID(ids[j])
	}
	clk.start("s1-dock")
	cfg.progress("s1-dock", 0.45)
	res.DockResults = eng.DockBatch(dockMols)
	clk.stop("s1-dock")
	if cfg.canceled() {
		return nil, ErrCanceled
	}
	res.Funnel.Docked = len(res.DockResults) + len(trainDocks)
	_, dockFlops = tallyDocks(res, res.DockResults)
	res.Counter.Add("S1", dockFlops, 0, int64(len(res.DockResults)))

	if err := runTail(&cfg, res, clk, model, ids, trainMols, trainScores, dockMols, pool); err != nil {
		return nil, err
	}
	return res, nil
}

// validate rejects configurations no path can run.
func (cfg *Config) validate() error {
	if cfg.Target == nil {
		return fmt.Errorf("campaign: nil target")
	}
	if cfg.LibrarySize < 10 || cfg.TrainSize < 10 {
		return fmt.Errorf("campaign: library/train sizes too small (%d/%d)",
			cfg.LibrarySize, cfg.TrainSize)
	}
	return nil
}

// newFunnelEngine builds the S1 docking engine wired to the config's
// cache and cancellation, with the throughput default of Runs=2.
func newFunnelEngine(cfg *Config) *dock.Engine {
	eng := dock.NewEngine(cfg.Target, cfg.Seed^0xD0C)
	if cfg.DockParams != nil {
		eng.Params = *cfg.DockParams
	} else {
		eng.Params.Runs = 2
	}
	eng.Workers = cfg.Workers
	eng.Cache = cfg.DockCache
	eng.Cancel = cfg.Cancel
	return eng
}

// fitSurrogate trains ML1 on this iteration's docking sample plus the
// accumulated active-learning pool, recording the report on res.
func fitSurrogate(cfg *Config, res *Result, trainMols []*chem.Molecule, trainScores []float64, pool *Pool) (*surrogate.Model, error) {
	fitMols, fitScores := trainMols, trainScores
	if pool != nil && pool.Size() > 0 {
		fitMols = append(append([]*chem.Molecule{}, pool.Mols...), trainMols...)
		fitScores = append(append([]float64{}, pool.Scores...), trainScores...)
	}
	model := surrogate.NewModel(cfg.Seed ^ 0x111)
	rep, err := model.Fit(fitMols, fitScores, surrogate.DefaultTrainConfig())
	if err != nil {
		return nil, fmt.Errorf("campaign: surrogate training: %w", err)
	}
	res.TrainReport = rep
	res.Model = model
	res.Counter.Add("ML1-train", rep.Flops, 0, int64(rep.Samples))
	return model, nil
}

// libraryIDs materializes the screen window's molecule IDs.
func libraryIDs(lib *chem.Library) []uint64 {
	ids := make([]uint64, lib.Size())
	for i := range ids {
		ids[i] = lib.IDAt(i)
	}
	return ids
}

// tallyDocks folds a slice of docking results into the funnel's
// consumed-work ledger, returning the scores and the flop total.
func tallyDocks(res *Result, docks []dock.Result) (scores []float64, flops int64) {
	scores = make([]float64, len(docks))
	for i, d := range docks {
		scores[i] = d.Score
		flops += d.Flops
		res.Funnel.DockEvals += d.Evals
		if d.Cached {
			res.Funnel.DockCacheHits++
		}
	}
	return scores, flops
}

// topCount is the size of the predicted-top selection for an n-compound
// screen.
func topCount(cfg *Config, n int) int {
	return max(1, int(cfg.TopFrac*float64(n)))
}

// resampleIndices returns the random lower-rank resample draw of §7.1.1
// ("we also select about 15–20 % of compounds from the RES to the
// subsequent stages"). The draw comes from a dedicated RNG stream that
// depends only on (seed, libOffset) — never on the predictions — so
// every execution path selects the same extras, and the streaming path
// can start docking them before ML1 has even finished training.
// Duplicate draws and collisions with the predicted top set simply
// yield fewer extras.
func resampleIndices(cfg *Config, n int, libOffset uint64) []int {
	nExtra := int(cfg.ResampleFrac * float64(topCount(cfg, n)))
	rr := xrand.NewFrom(cfg.Seed+libOffset, 0x5E1)
	out := make([]int, nExtra)
	for j := range out {
		out[j] = rr.Intn(n)
	}
	return out
}

// selectDockIdx computes the final S1 selection — predicted top fraction
// plus the deterministic resample — as sorted library indices. Every
// execution path (sequential, EnTK, streaming) calls this with the same
// predictions and therefore docks the identical compound set.
func selectDockIdx(cfg *Config, preds []float64, libOffset uint64) []int {
	sel := map[int]bool{}
	for _, i := range surrogate.TopK(preds, topCount(cfg, len(preds))) {
		sel[i] = true
	}
	for _, i := range resampleIndices(cfg, len(preds), libOffset) {
		sel[i] = true
	}
	idx := make([]int, 0, len(sel))
	for i := range sel {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// runTail executes everything downstream of S1 — active-learning pool
// feedback, RES analysis, diversity reduction, S3-CG, S2, S3-FG and the
// oracle metrics — shared verbatim by the sequential and streaming paths
// so their results stay byte-identical from the first docked pose on.
func runTail(cfg *Config, res *Result, clk *funnelClock, model *surrogate.Model,
	ids []uint64, trainMols []*chem.Molecule, trainScores []float64,
	dockMols []*chem.Molecule, pool *Pool) error {
	// Feed every docking label of this iteration back into the pool.
	if pool != nil {
		pool.Add(trainMols, trainScores)
		pool.Add(dockMols, scoresOf(res.DockResults))
	}

	// --- RES analysis (Fig. 4): surrogate vs docking truth on the
	// docked selection plus the training set. ---
	resMols := append(append([]*chem.Molecule{}, trainMols...), dockMols...)
	resTruth := append(append([]float64{}, trainScores...), scoresOf(res.DockResults)...)
	resPred := model.Predict(resMols)
	res.RES = surrogate.ComputeRES(resPred, resTruth,
		surrogate.DefaultFractions(), surrogate.DefaultFractions())

	// --- Diversity reduction and S3-CG (§7.1.2: structurally most
	// diverse compounds among the docking winners). ---
	bestDocked := surrogate.BottomK(scoresOf(res.DockResults), min(cfg.CGCount*3, len(res.DockResults)))
	candidates := make([]*chem.Molecule, len(bestDocked))
	for i, j := range bestDocked {
		candidates[i] = dockMols[j]
	}
	diverse := chem.MaxMinDiverse(candidates, min(cfg.CGCount, len(candidates)), 0)
	cgMols := make([]*chem.Molecule, len(diverse))
	cgPoses := make([][]geom.Vec3, len(diverse))
	for i, j := range diverse {
		cgMols[i] = candidates[j]
		cgPoses[i] = dockedPose(cfg.Target, cgMols[i], res.DockResults[bestDocked[j]])
	}
	clk.start("s3-cg")
	cfg.progress("s3-cg", 0.60)
	runner := esmacs.NewRunner(cfg.Target, cfg.Seed^0xE5)
	runner.Workers = cfg.Workers
	runner.KeepTrajectories = true
	cgProto := esmacs.CG()
	if cfg.FastProtocols {
		cgProto = fastProto(cgProto, 40, 200)
	}
	for i, m := range cgMols {
		if cfg.canceled() {
			return ErrCanceled
		}
		est := runner.Estimate(m, cgPoses[i], cgProto)
		res.CGEstimates = append(res.CGEstimates, est)
		res.Counter.Add("S3-CG", est.Flops, 0, 1)
	}
	res.Funnel.CG = len(res.CGEstimates)
	clk.stop("s3-cg")

	// --- S2: 3D-AAE + LOF over the CG ensembles of the top compounds. ---
	clk.start("s2")
	cfg.progress("s2", 0.80)
	if cfg.canceled() {
		return ErrCanceled
	}
	sort.Slice(res.CGEstimates, func(a, b int) bool {
		return res.CGEstimates[a].DeltaG < res.CGEstimates[b].DeltaG
	})
	nTopC := min(cfg.TopCompounds, len(res.CGEstimates))
	topEsts := res.CGEstimates[:nTopC]
	driver := deepdrive.NewDriver(cfg.Target)
	driver.Cfg.Seed = cfg.Seed ^ 0x52
	driver.Cfg.OutliersPerLigand = cfg.OutliersPer
	if cfg.FastProtocols {
		driver.Cfg.Epochs = 4
		driver.Cfg.MaxFrames = 240
	}
	s2rep, err := driver.Run(topEsts)
	if err != nil {
		return fmt.Errorf("campaign: S2: %w", err)
	}
	res.S2Report = s2rep
	res.Funnel.S2Frames = s2rep.Frames
	res.Counter.Add("S2", s2rep.Flops, 0, int64(nTopC))
	clk.stop("s2")

	// --- S3-FG from the S2-selected outlier conformations. ---
	clk.start("s3-fg")
	cfg.progress("s3-fg", 0.90)
	fgProto := esmacs.FG()
	if cfg.FastProtocols {
		fgProto = fastProto(fgProto, 80, 500)
	}
	bestFG := map[uint64]esmacs.Estimate{}
	for _, sel := range s2rep.Selections {
		if cfg.canceled() {
			return ErrCanceled
		}
		est := runner.Estimate(chem.FromID(sel.Ref.MolID), sel.Ligand, fgProto)
		res.FGEstimates = append(res.FGEstimates, est)
		res.Counter.Add("S3-FG", est.Flops, 0, 1)
		if prev, ok := bestFG[est.MolID]; !ok || est.DeltaG < prev.DeltaG {
			bestFG[est.MolID] = est
		}
	}
	res.Funnel.FG = len(res.FGEstimates)
	clk.stop("s3-fg")

	// --- Fig. 6 comparison + oracle metrics. ---
	for _, est := range topEsts {
		fg, ok := bestFG[est.MolID]
		if !ok {
			continue
		}
		res.Top = append(res.Top, TopComparison{
			MolID: est.MolID,
			CG:    est.DeltaG, CGErr: est.StdErr,
			FG: fg.DeltaG, FGErr: fg.StdErr,
			Truth: cfg.Target.TrueAffinity(chem.FromID(est.MolID)),
		})
	}
	res.ScientificYield = yield(cfg.Target, ids, cgMols)
	clk.finish(&res.Funnel)
	cfg.progress("done", 1.0)
	return nil
}

// dockedPose reconstructs the bead positions of a docking result.
func dockedPose(t *receptor.Target, m *chem.Molecule, d dock.Result) []geom.Vec3 {
	if d.Genome == nil {
		return nil
	}
	s := dock.NewScoreFunc(t, m)
	return s.PoseBeads(d.Genome)
}

// yield computes the fraction of the library's true top-1 % binders that
// made it into the CG set — oracle-only scientific performance.
func yield(t *receptor.Target, ids []uint64, cgMols []*chem.Molecule) float64 {
	if len(cgMols) == 0 {
		return 0
	}
	truths := make([]float64, len(ids))
	for i, id := range ids {
		truths[i] = t.TrueAffinity(chem.FromID(id))
	}
	nTop := max(1, len(ids)/100)
	topSet := map[uint64]bool{}
	for _, i := range surrogate.BottomK(truths, nTop) {
		topSet[ids[i]] = true
	}
	hits := 0
	for _, m := range cgMols {
		if topSet[m.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(cgMols))
}

func fastProto(p esmacs.Protocol, equil, prod int) esmacs.Protocol {
	p.EquilSteps = equil
	p.ProdSteps = prod
	p.MinimizeIters = 30
	return p
}

func scoresOf(rs []dock.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Score
	}
	return out
}

func materialize(ids []uint64) []*chem.Molecule {
	out := make([]*chem.Molecule, len(ids))
	for i, id := range ids {
		out[i] = chem.FromID(id)
	}
	return out
}
