package campaign

import (
	"slices"
	"testing"

	"impeccable/internal/dock"
	"impeccable/internal/receptor"
)

// goldenConfig is the fixed-seed campaign the golden-funnel regression
// pins: small enough to run three times in one test, large enough that
// every stage does real work.
func goldenConfig() Config {
	cfg := DefaultConfig(receptor.PLPro())
	cfg.LibrarySize = 900
	cfg.TrainSize = 150
	cfg.CGCount = 5
	cfg.TopCompounds = 2
	cfg.OutliersPer = 2
	cfg.Seed = 7
	cfg.FastProtocols = true
	p := dock.DefaultParams()
	p.Runs = 1
	p.Generations = 10
	p.Population = 24
	cfg.DockParams = &p
	return cfg
}

// goldenDigest flattens the parts of a result that must be identical on
// both drivers: funnel counts, the S1 dock ledger, the CG/FG estimates,
// the final top-K compounds and the per-component flop ledger. Exact
// float equality is intentional — the substrate's oracle and
// per-molecule seeding make the paths bit-reproducible, and any
// divergence is a scheduling bug leaking into the science.
type goldenDigest struct {
	counts  FunnelCounts
	dockIDs []uint64
	docks   []float64
	cgIDs   []uint64
	cgDGs   []float64
	fgIDs   []uint64
	fgDGs   []float64
	topIDs  []uint64
	topCG   []float64
	topFG   []float64
	yield   float64
	work    []componentWork
}

// componentWork is one component's flop-counter entry, minus the
// wall-clock seconds.
type componentWork struct {
	component    string
	flops, units int64
}

func digest(res *Result) goldenDigest {
	d := goldenDigest{counts: res.Funnel.Counts(), yield: res.ScientificYield}
	for _, r := range res.DockResults {
		d.dockIDs = append(d.dockIDs, r.MolID)
		d.docks = append(d.docks, r.Score)
	}
	for _, e := range res.CGEstimates {
		d.cgIDs = append(d.cgIDs, e.MolID)
		d.cgDGs = append(d.cgDGs, e.DeltaG)
	}
	for _, e := range res.FGEstimates {
		d.fgIDs = append(d.fgIDs, e.MolID)
		d.fgDGs = append(d.fgDGs, e.DeltaG)
	}
	for _, tc := range res.Top {
		d.topIDs = append(d.topIDs, tc.MolID)
		d.topCG = append(d.topCG, tc.CG)
		d.topFG = append(d.topFG, tc.FG)
	}
	for _, c := range res.Counter.Stats() {
		d.work = append(d.work, componentWork{c.Component, c.Flops, c.Units})
	}
	return d
}

func compareDigests(t *testing.T, pathA, pathB string, a, b goldenDigest) {
	t.Helper()
	if a.counts != b.counts {
		t.Errorf("%s vs %s: funnel counts differ:\n  %+v\n  %+v", pathA, pathB, a.counts, b.counts)
	}
	cmpU64 := func(name string, x, y []uint64) {
		t.Helper()
		if len(x) != len(y) {
			t.Errorf("%s vs %s: %s length %d vs %d", pathA, pathB, name, len(x), len(y))
			return
		}
		for i := range x {
			if x[i] != y[i] {
				t.Errorf("%s vs %s: %s[%d] = %016x vs %016x", pathA, pathB, name, i, x[i], y[i])
				return
			}
		}
	}
	cmpF64 := func(name string, x, y []float64) {
		t.Helper()
		if len(x) != len(y) {
			t.Errorf("%s vs %s: %s length %d vs %d", pathA, pathB, name, len(x), len(y))
			return
		}
		for i := range x {
			if x[i] != y[i] {
				t.Errorf("%s vs %s: %s[%d] = %v vs %v", pathA, pathB, name, i, x[i], y[i])
				return
			}
		}
	}
	cmpU64("dock mol IDs", a.dockIDs, b.dockIDs)
	cmpF64("dock scores", a.docks, b.docks)
	cmpU64("CG mol IDs", a.cgIDs, b.cgIDs)
	cmpF64("CG dG", a.cgDGs, b.cgDGs)
	cmpU64("FG mol IDs", a.fgIDs, b.fgIDs)
	cmpF64("FG dG", a.fgDGs, b.fgDGs)
	cmpU64("top-K mol IDs", a.topIDs, b.topIDs)
	cmpF64("top-K CG", a.topCG, b.topCG)
	cmpF64("top-K FG", a.topFG, b.topFG)
	if !slices.Equal(a.work, b.work) {
		t.Errorf("%s vs %s: flop ledger differs:\n  %+v\n  %+v", pathA, pathB, a.work, b.work)
	}
	if a.yield != b.yield {
		t.Errorf("%s vs %s: yield %v vs %v", pathA, pathB, a.yield, b.yield)
	}
}

// TestGoldenFunnelAcrossPaths is the golden-funnel regression: the same
// fixed-seed campaign must produce identical funnel counts, dock ledger,
// top-K compound IDs and per-component flop ledger whether it runs
// sequentially or as an EnTK pipeline over a real pilot. The substrate's
// determinism (per-molecule RNG streams everywhere) makes exact
// comparison possible; this is the contract every future schedule
// change must keep.
func TestGoldenFunnelAcrossPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full (small) campaigns")
	}
	cfg := goldenConfig()

	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entk, err := RunViaEnTK(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ds := digest(seq)
	compareDigests(t, "sequential", "entk", ds, digest(entk))
	if len(ds.topIDs) == 0 {
		t.Fatal("golden campaign produced no top compounds")
	}
	t.Logf("golden funnel: %+v", ds.counts)
}
