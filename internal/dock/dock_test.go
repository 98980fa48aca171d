package dock

import (
	"math"
	"testing"

	"impeccable/internal/chem"
	"impeccable/internal/geom"
	"impeccable/internal/receptor"
	"impeccable/internal/xrand"
)

func plpro() *receptor.Target { return receptor.PLPro() }

func TestScoreDeterministic(t *testing.T) {
	m := chem.FromID(5)
	s1 := NewScoreFunc(plpro(), m)
	s2 := NewScoreFunc(plpro(), m)
	g := randomGenome(s1, xrand.New(1))
	if s1.Score(g) != s2.Score(g) {
		t.Fatal("score not deterministic")
	}
}

func TestScoreFiniteEverywhere(t *testing.T) {
	m := chem.FromID(11)
	s := NewScoreFunc(plpro(), m)
	r := xrand.New(2)
	for i := 0; i < 500; i++ {
		g := randomGenome(s, r)
		// Also probe far-out and degenerate genomes.
		if i%3 == 0 {
			for k := range g {
				g[k] *= 10
			}
		}
		if i%7 == 0 {
			g[3], g[4], g[5], g[6] = 0, 0, 0, 0 // zero quaternion
		}
		e := s.Score(g)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("non-finite score %v for genome %v", e, g)
		}
	}
}

func TestPocketPoseBeatsSolventPose(t *testing.T) {
	// A pose at the pocket center should score better than one far out
	// in solvent for essentially every molecule.
	tg := plpro()
	r := xrand.New(3)
	better := 0
	const n = 50
	for i := 0; i < n; i++ {
		m := chem.FromID(r.Uint64())
		s := NewScoreFunc(tg, m)
		in := make([]float64, s.GenomeLen())
		in[0], in[1], in[2] = tg.PocketCenter().X, tg.PocketCenter().Y, tg.PocketCenter().Z
		in[3] = 1
		out := make([]float64, s.GenomeLen())
		out[0] = 40
		out[3] = 1
		if s.Score(in) < s.Score(out) {
			better++
		}
	}
	if better < n*9/10 {
		t.Fatalf("pocket pose better in only %d/%d cases", better, n)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	m := chem.FromID(3)
	s := NewScoreFunc(plpro(), m)
	g := randomGenome(s, xrand.New(4))
	grad := make([]float64, len(g))
	s.Gradient(g, grad)
	// Spot-check against an independent finite difference.
	const h = 1e-5
	for k := 0; k < len(g); k += 2 {
		gp := append([]float64(nil), g...)
		gp[k] += h
		gm := append([]float64(nil), g...)
		gm[k] -= h
		fd := (s.Score(gp) - s.Score(gm)) / (2 * h)
		if math.Abs(fd-grad[k]) > 1e-2*(1+math.Abs(fd)) {
			t.Fatalf("gradient[%d] = %v, finite diff %v", k, grad[k], fd)
		}
	}
}

func TestSolisWetsImproves(t *testing.T) {
	m := chem.FromID(9)
	s := NewScoreFunc(plpro(), m)
	r := xrand.New(5)
	g := randomGenome(s, r)
	e0 := s.Score(g)
	e1 := NewSolisWets().Refine(s, g, e0, 100, r)
	if e1 > e0 {
		t.Fatalf("Solis-Wets worsened energy: %v -> %v", e0, e1)
	}
	if got := s.Score(g); math.Abs(got-e1) > 1e-9 {
		t.Fatalf("returned energy %v does not match refined genome energy %v", e1, got)
	}
}

// TestRefineAllocatesOnce: Solis-Wets takes one scratch slice per
// Refine however many iterations it runs, and the gradient probe of
// ADADELTA's refinement reuses the scoring function's buffer.
func TestRefineAllocatesOnce(t *testing.T) {
	s := NewScoreFunc(plpro(), chem.FromID(9))
	r := xrand.New(5)
	g := randomGenome(s, r)
	e := s.Score(g)
	sw := NewSolisWets()
	gg := make([]float64, len(g))
	if got := testing.AllocsPerRun(20, func() {
		copy(gg, g)
		sw.Refine(s, gg, e, 100, r)
	}); got > 1 {
		t.Errorf("SolisWets.Refine: %v allocations per run, want 1", got)
	}
	grad := make([]float64, len(g))
	s.Gradient(g, grad)
	if got := testing.AllocsPerRun(20, func() { s.Gradient(g, grad) }); got != 0 {
		t.Errorf("ScoreFunc.Gradient: %v allocations per call, want 0", got)
	}
}

func TestADADELTAImproves(t *testing.T) {
	m := chem.FromID(9)
	s := NewScoreFunc(plpro(), m)
	r := xrand.New(6)
	g := randomGenome(s, r)
	e0 := s.Score(g)
	e1 := NewADADELTA().Refine(s, g, e0, 30, r)
	if e1 > e0 {
		t.Fatalf("ADADELTA worsened energy: %v -> %v", e0, e1)
	}
	if got := s.Score(g); math.Abs(got-e1) > 1e-9 {
		t.Fatalf("returned energy %v does not match refined genome energy %v", e1, got)
	}
}

func TestDockFindsGoodPose(t *testing.T) {
	tg := plpro()
	m := chem.FromID(21)
	s := NewScoreFunc(tg, m)
	res := Dock(s, DefaultParams(), xrand.New(7))
	if res.Genome == nil {
		t.Fatal("no pose returned")
	}
	// Docked pose must be near the pocket, not in solvent.
	tr, q, tors := decode(res.Genome)
	pos := s.Conf.Apply(tr, q, tors, nil)
	ctr := geom.Centroid(pos)
	if d := ctr.Dist(tg.PocketCenter()); d > tg.PocketRadius()+4 {
		t.Fatalf("docked centroid %v is %v Å from pocket", ctr, d)
	}
	// And must beat a random pose by a clear margin.
	var randE float64
	r := xrand.New(8)
	for i := 0; i < 20; i++ {
		randE += s.Score(randomGenome(s, r))
	}
	randE /= 20
	if res.Score >= randE {
		t.Fatalf("docked score %v no better than random mean %v", res.Score, randE)
	}
	if res.Evals <= 0 || res.Flops <= 0 {
		t.Fatalf("accounting missing: evals=%d flops=%d", res.Evals, res.Flops)
	}
}

func TestDockDeterministicGivenSeed(t *testing.T) {
	m := chem.FromID(33)
	a := Dock(NewScoreFunc(plpro(), m), DefaultParams(), xrand.New(9))
	b := Dock(NewScoreFunc(plpro(), m), DefaultParams(), xrand.New(9))
	if a.Score != b.Score {
		t.Fatalf("dock not deterministic: %v vs %v", a.Score, b.Score)
	}
}

func TestDockScoreCorrelatesWithTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	// The whole pipeline rests on docking being a noisy but informative
	// observation of ground truth. Over a set of molecules, best-pose
	// score and TrueAffinity must correlate positively (both negative =
	// better).
	tg := plpro()
	eng := NewEngine(tg, 99)
	eng.Params.Runs = 2 // keep the test fast
	r := xrand.New(10)
	const n = 60
	mols := make([]*chem.Molecule, n)
	for i := range mols {
		mols[i] = chem.FromID(r.Uint64())
	}
	res := eng.DockBatch(mols)
	var sx, sy, sxx, syy, sxy float64
	for i, m := range mols {
		x := tg.TrueAffinity(m)
		y := res[i].Score
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	nf := float64(n)
	corr := (sxy/nf - sx/nf*sy/nf) /
		math.Sqrt((sxx/nf-sx/nf*sx/nf)*(syy/nf-sy/nf*sy/nf))
	// Docking is designed to be a *noisy* observation (real docking
	// scores correlate with experimental affinity at roughly this
	// level); the pipeline's enrichment tests verify the signal is
	// sufficient downstream.
	if corr < 0.2 {
		t.Fatalf("dock/truth correlation = %v, want >= 0.2", corr)
	}
	t.Logf("dock/truth correlation = %.3f", corr)
}

func TestADADELTAQualityAtLeastComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	// §5.1.1: the gradient local search should produce scores at least
	// as good as Solis-Wets on average.
	tg := plpro()
	r := xrand.New(11)
	var sw, ad float64
	const n = 15
	for i := 0; i < n; i++ {
		m := chem.FromID(r.Uint64())
		sw += Dock(NewScoreFunc(tg, m), DefaultParams(), xrand.NewFrom(1, uint64(i))).Score
		ad += Dock(NewScoreFunc(tg, m), QualityParams(), xrand.NewFrom(1, uint64(i))).Score
	}
	if ad > sw+2.0*n/10 {
		t.Fatalf("ADADELTA mean score %v much worse than Solis-Wets %v", ad/n, sw/n)
	}
	t.Logf("mean scores: solis-wets %.2f, adadelta %.2f", sw/n, ad/n)
}

func TestDockBatchOrderAndParallelism(t *testing.T) {
	tg := plpro()
	eng := NewEngine(tg, 5)
	eng.Params.Runs = 1
	eng.Params.Generations = 5
	mols := make([]*chem.Molecule, 12)
	for i := range mols {
		mols[i] = chem.FromID(uint64(i + 100))
	}
	seq := *eng
	seq.Workers = 1
	par := *eng
	par.Workers = 4
	a := seq.DockBatch(mols)
	b := par.DockBatch(mols)
	for i := range a {
		if a[i].MolID != mols[i].ID || b[i].MolID != mols[i].ID {
			t.Fatalf("result order broken at %d", i)
		}
		if a[i].Score != b[i].Score {
			t.Fatalf("parallel dock diverged from sequential at %d: %v vs %v", i, a[i].Score, b[i].Score)
		}
	}
}

func TestDockIDs(t *testing.T) {
	eng := NewEngine(plpro(), 5)
	eng.Params.Runs = 1
	eng.Params.Generations = 3
	res := eng.DockIDs([]uint64{1, 2, 3})
	if len(res) != 3 || res[0].MolID != chem.FromID(1).ID {
		t.Fatalf("DockIDs results malformed: %+v", res)
	}
}

func TestFlopsPerEvalPositive(t *testing.T) {
	s := NewScoreFunc(plpro(), chem.FromID(1))
	if s.FlopsPerEval() <= 0 {
		t.Fatal("FlopsPerEval must be positive")
	}
}

func BenchmarkScore(b *testing.B) {
	s := NewScoreFunc(plpro(), chem.FromID(1))
	g := randomGenome(s, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Score(g)
	}
}

func BenchmarkDockOne(b *testing.B) {
	eng := NewEngine(plpro(), 1)
	m := chem.FromID(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.DockOne(m)
	}
}

func BenchmarkSolisWetsRefine(b *testing.B) {
	s := NewScoreFunc(plpro(), chem.FromID(1))
	r := xrand.New(1)
	g := randomGenome(s, r)
	e := s.Score(g)
	sw := NewSolisWets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gg := append([]float64(nil), g...)
		sw.Refine(s, gg, e, 25, r)
	}
}
