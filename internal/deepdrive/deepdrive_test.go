package deepdrive

import (
	"testing"

	"impeccable/internal/chem"
	"impeccable/internal/esmacs"
	"impeccable/internal/md"
	"impeccable/internal/receptor"
	"impeccable/internal/xrand"
)

// fastEstimates runs a shortened CG protocol with retained trajectories
// for a few molecules.
func fastEstimates(t *testing.T, n int) []esmacs.Estimate {
	t.Helper()
	tg := receptor.PLPro()
	runner := esmacs.NewRunner(tg, 5)
	runner.KeepTrajectories = true
	proto := esmacs.CG()
	proto.Replicas = 3
	proto.EquilSteps = 40
	proto.ProdSteps = 200
	proto.SampleEach = 20
	proto.MinimizeIters = 20
	r := xrand.New(7)
	ests := make([]esmacs.Estimate, n)
	for i := 0; i < n; i++ {
		ests[i] = runner.Estimate(chem.FromID(r.Uint64()), nil, proto)
	}
	return ests
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs = 4
	cfg.BatchSize = 8
	cfg.MaxFrames = 120
	cfg.LOFK = 8
	cfg.OutliersPerLigand = 3
	return cfg
}

func TestRunProducesSelections(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	ests := fastEstimates(t, 3)
	d := NewDriver(receptor.PLPro())
	d.Cfg = fastConfig()
	rep, err := d.Run(ests)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 || len(rep.Embeddings) != rep.Frames || len(rep.Refs) != rep.Frames {
		t.Fatalf("dataset bookkeeping broken: %d frames, %d embeddings, %d refs",
			rep.Frames, len(rep.Embeddings), len(rep.Refs))
	}
	// 3 molecules × 3 outliers each.
	if len(rep.Selections) != 9 {
		t.Fatalf("selections = %d, want 9", len(rep.Selections))
	}
	perMol := map[uint64]int{}
	for _, s := range rep.Selections {
		perMol[s.Ref.MolID]++
		if len(s.Ligand) == 0 || len(s.Latent) == 0 {
			t.Fatal("selection missing coordinates or latent")
		}
	}
	for id, c := range perMol {
		if c != 3 {
			t.Fatalf("mol %x has %d selections", id, c)
		}
	}
	if len(rep.History) != d.Cfg.Epochs {
		t.Fatalf("history epochs = %d", len(rep.History))
	}
	if rep.ValRecon <= 0 {
		t.Fatalf("validation recon = %v", rep.ValRecon)
	}
	if rep.Flops <= 0 {
		t.Fatal("flops accounting missing")
	}
}

func TestSelectionsOrderedByLOF(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	ests := fastEstimates(t, 2)
	d := NewDriver(receptor.PLPro())
	d.Cfg = fastConfig()
	rep, err := d.Run(ests)
	if err != nil {
		t.Fatal(err)
	}
	// Within each molecule, LOF scores must be non-increasing.
	last := map[uint64]float64{}
	for _, s := range rep.Selections {
		if prev, ok := last[s.Ref.MolID]; ok && s.LOFScore > prev+1e-12 {
			t.Fatalf("selections not ordered by LOF: %v after %v", s.LOFScore, prev)
		}
		last[s.Ref.MolID] = s.LOFScore
	}
}

func TestRunErrors(t *testing.T) {
	d := NewDriver(receptor.PLPro())
	d.Cfg = fastConfig()
	if _, err := d.Run(nil); err == nil {
		t.Fatal("no error for empty input")
	}
	// Estimates without retained trajectories must error.
	tg := receptor.PLPro()
	runner := esmacs.NewRunner(tg, 1)
	proto := esmacs.CG()
	proto.Replicas = 1
	proto.EquilSteps = 10
	proto.ProdSteps = 40
	proto.MinimizeIters = 5
	est := runner.Estimate(chem.FromID(1), nil, proto)
	if _, err := d.Run([]esmacs.Estimate{est}); err == nil {
		t.Fatal("no error for estimates without trajectories")
	}
}

func TestMaxFramesSubsampling(t *testing.T) {
	ests := fastEstimates(t, 3)
	d := NewDriver(receptor.PLPro())
	d.Cfg = fastConfig()
	d.Cfg.MaxFrames = 30
	rep, err := d.Run(ests)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 30 {
		t.Fatalf("frames = %d, want capped 30", rep.Frames)
	}
}

func TestIterateRestartsFromSelections(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	ests := fastEstimates(t, 2)
	d := NewDriver(receptor.PLPro())
	d.Cfg = fastConfig()
	rep, err := d.Run(ests)
	if err != nil {
		t.Fatal(err)
	}
	sels := rep.Selections[:2]
	trs := d.Iterate(sels, func(id uint64) *md.System {
		return md.NewSystem(receptor.PLPro(), chem.FromID(id), nil)
	}, 100)
	if len(trs) != 2 {
		t.Fatalf("trajectories = %d", len(trs))
	}
	for _, tr := range trs {
		if len(tr.Frames) == 0 {
			t.Fatal("restarted trajectory empty")
		}
	}
}

func TestDeterministicRun(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	ests := fastEstimates(t, 2)
	d1 := NewDriver(receptor.PLPro())
	d1.Cfg = fastConfig()
	d2 := NewDriver(receptor.PLPro())
	d2.Cfg = fastConfig()
	r1, err1 := d1.Run(ests)
	r2, err2 := d2.Run(ests)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.ValRecon != r2.ValRecon {
		t.Fatalf("not deterministic: %v vs %v", r1.ValRecon, r2.ValRecon)
	}
	for i := range r1.Selections {
		if r1.Selections[i].Ref != r2.Selections[i].Ref {
			t.Fatalf("selection %d differs", i)
		}
	}
}

// TestRankStableTiesGoToEarlierFrame: frames of equal LOF score rank by
// frame index, and only the more stable half of the frames is ranked.
func TestRankStableTiesGoToEarlierFrame(t *testing.T) {
	const n = 41 // 21 even frames: the median interaction energy is theirs
	refs := make([]FrameRef, n)
	cands := make([]cand, n)
	for i := range refs {
		refs[i].Inter = float64(i % 2) // odd frames are the less stable half
	}
	for i := range cands {
		// Reverse frame order, three distinct scores.
		idx := n - 1 - i
		cands[i] = cand{idx: idx, score: float64(idx % 3)}
	}
	got := rankStable(cands, refs)
	if len(got) != n/2+1 {
		t.Fatalf("%d frames ranked, want the %d stable ones", len(got), n/2+1)
	}
	for i, c := range got {
		if refs[c.idx].Inter != 0 {
			t.Fatalf("rank %d: frame %d is in the less stable half", i, c.idx)
		}
		if i == 0 {
			continue
		}
		p := got[i-1]
		if p.score < c.score || p.score == c.score && p.idx > c.idx {
			t.Fatalf("rank %d: frame %d (score %v) before frame %d (score %v)", i, p.idx, p.score, c.idx, c.score)
		}
	}
}
