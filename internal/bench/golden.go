package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"impeccable"
)

// goldenEntry is the science one (window, seed, sizes) request must
// produce: the funnel's path-invariant counts as a cold run reports
// them, and the compounds that reached the top of the funnel.
type goldenEntry struct {
	Counts impeccable.FunnelCounts `json:"counts"`
	TopIDs []uint64                `json:"top_ids"`
	Yield  float64                 `json:"scientific_yield"`
}

// goldenFile maps requestKey to its entry.
type goldenFile map[string]goldenEntry

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: decoding testdata/golden.json: %w", err)
	}
	return g, nil
}

// requestKey identifies a request by everything that determines its
// science.
func requestKey(r impeccable.SubmitRequest) string {
	return fmt.Sprintf("%s/off%d/seed%d/lib%d/train%d/cg%d/top%d/out%d",
		r.Target, r.LibOffset, r.Seed, r.LibrarySize, r.TrainSize, r.CGCount, r.TopCompounds, r.OutliersPer)
}

func entryOf(sum impeccable.ResultSummary) goldenEntry {
	e := goldenEntry{Counts: sum.Funnel.Counts(), Yield: sum.ScientificYield, TopIDs: []uint64{}}
	for _, t := range sum.Top {
		e.TopIDs = append(e.TopIDs, t.MolID)
	}
	return e
}

// check compares a result against the golden entry of its request. A
// warm result must match the cold one everywhere but the cost ledger,
// where it must show that every dock was a cache read.
func (g goldenFile) check(req impeccable.SubmitRequest, sum impeccable.ResultSummary, warm bool) error {
	want, ok := g[requestKey(req)]
	if !ok {
		return fmt.Errorf("bench: no golden entry for %s (run -update-golden)", requestKey(req))
	}
	got := entryOf(sum)
	if warm {
		if got.Counts.DockEvals != 0 || got.Counts.DockCacheHits != got.Counts.Docked {
			return fmt.Errorf("bench: warm %s spent %d dock evals with %d/%d cache hits",
				requestKey(req), got.Counts.DockEvals, got.Counts.DockCacheHits, got.Counts.Docked)
		}
		got.Counts.DockEvals, got.Counts.DockCacheHits = want.Counts.DockEvals, want.Counts.DockCacheHits
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		return fmt.Errorf("bench: %s differs from golden: got %s want %s", requestKey(req), b, a)
	}
	return nil
}

// scienceOf strips the cost ledger from a summary: what remains must
// be identical however warm the caches were.
func scienceOf(sum impeccable.ResultSummary) impeccable.ResultSummary {
	f := sum.Funnel.Counts()
	sum.Funnel = impeccable.FunnelStats{
		Screened: f.Screened, Docked: f.Docked, CG: f.CG, S2Frames: f.S2Frames, FG: f.FG,
	}
	return sum
}

// UpdateGolden runs every pool window cold, in both funnel
// configurations and at both the full and the miniature sizes, and
// returns the golden file's new content.
func UpdateGolden(workDir string, logf func(string, ...any)) ([]byte, error) {
	g := goldenFile{}
	for _, s := range []sizes{sizesFor(1), miniSizes()} {
		for _, w := range pool(s.Library) {
			for _, req := range []impeccable.SubmitRequest{
				s.campaign(w, s.ColdCG, s.ColdTop, s.ColdOut),
				s.campaign(w, s.WarmCG, s.WarmTop, s.WarmOut),
			} {
				if _, ok := g[requestKey(req)]; ok {
					continue
				}
				sum, err := coldRun(workDir, req)
				if err != nil {
					return nil, err
				}
				g[requestKey(req)] = entryOf(sum)
				logf("golden %s", requestKey(req))
			}
		}
	}
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return nil, fmt.Errorf("bench: encoding golden file: %w", err)
	}
	return append(out, '\n'), nil
}

// coldRun executes one request on a fresh cluster and worker.
func coldRun(workDir string, req impeccable.SubmitRequest) (impeccable.ResultSummary, error) {
	dir, err := os.MkdirTemp(workDir, "state-golden-")
	if err != nil {
		return impeccable.ResultSummary{}, fmt.Errorf("bench: creating state dir: %w", err)
	}
	defer os.RemoveAll(dir)
	c, _, err := openCluster(serviceOptions(dir), nil)
	if err != nil {
		return impeccable.ResultSummary{}, err
	}
	defer c.close()
	w := startWorker(c, nil)
	defer w.stop()
	life, err := c.campaign(req)
	return life.sum, err
}
