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
	"sync"
	"time"

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
	// Calls never overlap, but RunViaEnTK makes them from pilot
	// goroutines rather than the caller's.
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

	// SpeculativeDocks/SpeculativeEvals are always zero. They counted
	// the removed streaming driver's evicted speculative docks and stay
	// only because journals and result summaries written with them
	// must still decode and re-hash to the same provenance chain.
	SpeculativeDocks int
	SpeculativeEvals int64

	// Timings records each stage's wall-clock window as offsets from the
	// campaign start; both drivers run the stages back to back.
	Timings []StageTiming
	// WallSeconds is the campaign's total wall-clock time.
	WallSeconds float64
	// OverlapRatio is the sum of per-stage wall-clock over WallSeconds:
	// ≈1 when stages run back-to-back (as both drivers do).
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
// fixed config these are byte-identical across Run and RunViaEnTK — the
// golden-funnel regression contract.
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

// RunWithPool executes one campaign iteration whose surrogate trains on
// the accumulated pool in addition to this iteration's offline docking
// sample, screening the library window starting at libOffset. Docked
// compounds and their scores are appended to the pool (when non-nil) for
// the next iteration.
func RunWithPool(cfg Config, pool *Pool, libOffset uint64) (*Result, error) {
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
	trainScores := tallyDocks(res, trainDocks)

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
	dockMols := screen(&cfg, res, model, ids, cfg.Workers, libOffset)
	clk.stop("ml1-screen")

	// --- The production docking batch. ---
	clk.start("s1-dock")
	cfg.progress("s1-dock", 0.45)
	res.DockResults = eng.DockBatch(dockMols)
	clk.stop("s1-dock")
	if cfg.canceled() {
		return nil, ErrCanceled
	}
	res.Funnel.Docked = len(res.DockResults) + len(trainDocks)
	tallyDocks(res, res.DockResults)

	if err := runTail(&cfg, res, clk, model, ids, trainMols, trainScores, dockMols, pool); err != nil {
		return nil, err
	}
	return res, nil
}

// validate rejects configurations neither driver can run.
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

// screen scores the library window with ML1 and returns the S1
// selection: the predicted top fraction plus the deterministic resample.
func screen(cfg *Config, res *Result, model *surrogate.Model, ids []uint64, workers int, libOffset uint64) []*chem.Molecule {
	preds := model.PredictIDsFrom(ids, workers, cfg.Features)
	res.Funnel.Screened = len(ids)
	res.Counter.Add("ML1", model.InferenceFlops(len(ids)), 0, int64(len(ids)))
	dockIdx := selectDockIdx(cfg, preds, libOffset)
	dockMols := make([]*chem.Molecule, len(dockIdx))
	for i, j := range dockIdx {
		dockMols[i] = chem.FromID(ids[j])
	}
	return dockMols
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
// consumed-work ledger and the S1 flop count, returning the scores.
func tallyDocks(res *Result, docks []dock.Result) []float64 {
	scores := make([]float64, len(docks))
	var flops int64
	for i, d := range docks {
		scores[i] = d.Score
		flops += d.Flops
		res.Funnel.DockEvals += d.Evals
		if d.Cached {
			res.Funnel.DockCacheHits++
		}
	}
	res.Counter.Add("S1", flops, 0, int64(len(docks)))
	return scores
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
// both drivers select the same extras. Duplicate draws and collisions with the predicted top set simply
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
// plus the deterministic resample — as sorted library indices. Both
// drivers call this with the same predictions and therefore dock the
// identical compound set.
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
// oracle metrics. RunViaEnTK schedules the same steps as pilot tasks
// through the helpers below, so both drivers compute every science value
// by the same expressions in the same order.
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

	// --- Diversity reduction and S3-CG. ---
	cgMols, cgPoses := selectCG(cfg, dockMols, res.DockResults)
	clk.start("s3-cg")
	cfg.progress("s3-cg", 0.60)
	runner, cgProto, fgProto := newESMACS(cfg, cfg.Workers)
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
	topEsts := rankCG(cfg, res)
	s2rep, err := runS2(cfg, res, topEsts)
	if err != nil {
		return err
	}
	clk.stop("s2")

	// --- S3-FG from the S2-selected outlier conformations. ---
	clk.start("s3-fg")
	cfg.progress("s3-fg", 0.90)
	for _, sel := range s2rep.Selections {
		if cfg.canceled() {
			return ErrCanceled
		}
		est := runner.Estimate(chem.FromID(sel.Ref.MolID), sel.Ligand, fgProto)
		res.FGEstimates = append(res.FGEstimates, est)
		res.Counter.Add("S3-FG", est.Flops, 0, 1)
	}
	res.Funnel.FG = len(res.FGEstimates)
	clk.stop("s3-fg")

	// --- Fig. 6 comparison + oracle metrics. ---
	res.Top = compareTop(cfg.Target, topEsts, res.FGEstimates)
	res.ScientificYield = yield(cfg.Target, ids, cgMols)
	clk.finish(&res.Funnel)
	cfg.progress("done", 1.0)
	return nil
}

// selectCG picks the S3-CG compounds (§7.1.2): the structurally most
// diverse among the best-scoring docks, each with its docked pose.
func selectCG(cfg *Config, dockMols []*chem.Molecule, docks []dock.Result) ([]*chem.Molecule, [][]geom.Vec3) {
	best := surrogate.BottomK(scoresOf(docks), min(cfg.CGCount*3, len(docks)))
	cands := make([]*chem.Molecule, len(best))
	for i, j := range best {
		cands[i] = dockMols[j]
	}
	diverse := chem.MaxMinDiverse(cands, min(cfg.CGCount, len(cands)), 0)
	mols := make([]*chem.Molecule, len(diverse))
	poses := make([][]geom.Vec3, len(diverse))
	for i, j := range diverse {
		mols[i] = cands[j]
		poses[i] = dockedPose(cfg.Target, mols[i], docks[best[j]])
	}
	return mols, poses
}

// newESMACS builds the ESMACS runner both S3 stages share, with the
// S3-CG and S3-FG protocols (shrunk under FastProtocols).
func newESMACS(cfg *Config, workers int) (runner *esmacs.Runner, cg, fg esmacs.Protocol) {
	runner = esmacs.NewRunner(cfg.Target, cfg.Seed^0xE5)
	runner.Workers = workers
	runner.KeepTrajectories = true
	cg, fg = esmacs.CG(), esmacs.FG()
	if cfg.FastProtocols {
		cg = fastProto(cg, 40, 200)
		fg = fastProto(fg, 80, 500)
	}
	return runner, cg, fg
}

// rankCG sorts the CG estimates by ΔG and returns the top compounds
// that S2 and S3-FG refine.
func rankCG(cfg *Config, res *Result) []esmacs.Estimate {
	sort.Slice(res.CGEstimates, func(a, b int) bool {
		return res.CGEstimates[a].DeltaG < res.CGEstimates[b].DeltaG
	})
	return res.CGEstimates[:min(cfg.TopCompounds, len(res.CGEstimates))]
}

// runS2 trains the 3D-AAE over the top compounds' CG ensembles and
// selects their LOF outlier conformations for S3-FG.
func runS2(cfg *Config, res *Result, topEsts []esmacs.Estimate) (*deepdrive.Report, error) {
	driver := deepdrive.NewDriver(cfg.Target)
	driver.Cfg.Seed = cfg.Seed ^ 0x52
	driver.Cfg.OutliersPerLigand = cfg.OutliersPer
	if cfg.FastProtocols {
		driver.Cfg.Epochs = 4
		driver.Cfg.MaxFrames = 240
	}
	rep, err := driver.Run(topEsts)
	if err != nil {
		return nil, fmt.Errorf("campaign: S2: %w", err)
	}
	res.S2Report = rep
	res.Funnel.S2Frames = rep.Frames
	res.Counter.Add("S2", rep.Flops, 0, int64(len(topEsts)))
	return rep, nil
}

// compareTop pairs each top compound's CG estimate with its best FG
// estimate (the Fig. 6 data), skipping compounds S2 sent nothing for.
func compareTop(t *receptor.Target, topEsts, fgEsts []esmacs.Estimate) []TopComparison {
	bestFG := map[uint64]esmacs.Estimate{}
	for _, est := range fgEsts {
		if prev, ok := bestFG[est.MolID]; !ok || est.DeltaG < prev.DeltaG {
			bestFG[est.MolID] = est
		}
	}
	var top []TopComparison
	for _, est := range topEsts {
		fg, ok := bestFG[est.MolID]
		if !ok {
			continue
		}
		top = append(top, TopComparison{
			MolID: est.MolID,
			CG:    est.DeltaG, CGErr: est.StdErr,
			FG: fg.DeltaG, FGErr: fg.StdErr,
			Truth: t.TrueAffinity(chem.FromID(est.MolID)),
		})
	}
	return top
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

// funnelClock accumulates per-stage wall-clock windows; safe for
// concurrent use (RunViaEnTK marks stages from pilot goroutines).
type funnelClock struct {
	mu   sync.Mutex
	t0   time.Time
	last time.Time
	open map[string]time.Time
	sp   []StageTiming
}

func newFunnelClock() *funnelClock {
	now := time.Now() //impeccable:wallclock stage timings are observability, excluded from science Counts()
	return &funnelClock{t0: now, last: now, open: map[string]time.Time{}}
}

// start opens a stage window.
func (c *funnelClock) start(stage string) {
	c.mu.Lock()
	c.open[stage] = time.Now() //impeccable:wallclock stage timings are observability, excluded from science Counts()
	c.mu.Unlock()
}

// stop closes a stage window opened by start.
func (c *funnelClock) stop(stage string) {
	now := time.Now() //impeccable:wallclock stage timings are observability, excluded from science Counts()
	c.mu.Lock()
	if at, ok := c.open[stage]; ok {
		delete(c.open, stage)
		c.sp = append(c.sp, StageTiming{
			Stage:   stage,
			StartS:  at.Sub(c.t0).Seconds(),
			Seconds: now.Sub(at).Seconds(),
		})
	}
	c.mu.Unlock()
}

// mark records a window from the previous mark (or the clock's birth) to
// now — the boundary-only instrumentation the EnTK path uses, where
// stage starts are not directly hookable.
func (c *funnelClock) mark(stage string) {
	now := time.Now() //impeccable:wallclock stage timings are observability, excluded from science Counts()
	c.mu.Lock()
	c.sp = append(c.sp, StageTiming{
		Stage:   stage,
		StartS:  c.last.Sub(c.t0).Seconds(),
		Seconds: now.Sub(c.last).Seconds(),
	})
	c.last = now
	c.mu.Unlock()
}

// finish stamps the stats with the recorded windows, the total
// wall-clock and the overlap ratio.
func (c *funnelClock) finish(f *FunnelStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f.Timings = append([]StageTiming(nil), c.sp...)
	f.WallSeconds = time.Since(c.t0).Seconds() //impeccable:wallclock wall-clock total is the quantity being reported
	var sum float64
	for _, s := range c.sp {
		sum += s.Seconds
	}
	if f.WallSeconds > 0 {
		f.OverlapRatio = sum / f.WallSeconds
	}
}
