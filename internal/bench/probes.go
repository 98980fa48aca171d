package bench

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"impeccable"
	"impeccable/internal/aae"
	"impeccable/internal/blob"
	"impeccable/internal/chem"
	"impeccable/internal/dock"
	"impeccable/internal/esmacs"
	"impeccable/internal/geom"
	"impeccable/internal/latent"
	"impeccable/internal/md"
	"impeccable/internal/nn"
	"impeccable/internal/receptor"
	"impeccable/internal/surrogate"
	"impeccable/internal/xrand"
)

// probes measures single layers directly, through their exported
// functions, on small fixed inputs at GOMAXPROCS = nproc. They are the
// per-layer numbers no end-to-end run can isolate: a kernel's rate, or
// a differential (the same lifecycles with and without a state dir).
// Every probe is sized to a fraction of a second; they are figures to
// explain an end-to-end change with, not to gate on.
func probes(workDir string) (map[string]Value, error) {
	out := map[string]Value{}
	rate := func(name string, n float64, d time.Duration) {
		out[name] = Value{Value: n / d.Seconds(), Unit: "1/s"}
	}
	t := receptor.PLPro()
	ids := make([]uint64, 4000)
	for i := range ids {
		ids[i] = uint64(900_000 + i)
	}

	// ---- chem, surrogate, nn ----
	start := time.Now()
	mols := make([]*chem.Molecule, 2000)
	for i := range mols {
		mols[i] = chem.FromID(ids[i])
	}
	rate("chem.fromid_per_s", float64(len(mols)), time.Since(start))
	start = time.Now()
	for _, m := range mols {
		_ = m.FeatureVector()
	}
	rate("surrogate.featurize_ligands_per_s", float64(len(mols)), time.Since(start))
	train := mols[:120]
	scores := make([]float64, len(train))
	for i, m := range train {
		scores[i] = t.TrueAffinity(m)
	}
	model := surrogate.NewModel(1)
	start = time.Now()
	if _, err := model.Fit(train, scores, surrogate.DefaultTrainConfig()); err != nil {
		return nil, fmt.Errorf("bench: surrogate probe: %w", err)
	}
	out["surrogate.train_s"] = Value{Value: time.Since(start).Seconds(), Unit: "s"}
	start = time.Now()
	_ = model.PredictIDs(ids, runtime.GOMAXPROCS(0))
	rate("surrogate.infer_ligands_per_s", float64(len(ids)), time.Since(start))
	const dim, reps = 192, 20
	a, b, dst := nn.NewMat(dim, dim), nn.NewMat(dim, dim), nn.NewMat(dim, dim)
	r := xrand.New(1)
	for i := range a.V {
		a.V[i], b.V[i] = r.NormFloat64(), r.NormFloat64()
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		nn.MatMulInto(dst, a, b)
	}
	out["nn.matmul_gflops"] = Value{Value: 2 * dim * dim * dim * reps / time.Since(start).Seconds() / 1e9, Unit: "GFLOP/s"}

	// ---- dock ----
	eng := dock.NewEngine(t, 1)
	eng.Params.Runs = 2 // the funnel's throughput setting
	start = time.Now()
	docks := eng.DockBatch(mols[:16])
	d := time.Since(start)
	var evals int64
	for _, res := range docks {
		evals += res.Evals
	}
	rate("dock.docks_per_s", float64(len(docks)), d)
	rate("dock.evals_per_s", float64(evals), d)
	out["dock.evals_per_dock"] = Value{Value: float64(evals) / float64(len(docks)), Unit: "count"}

	// ---- esmacs, md ----
	pose := dock.NewScoreFunc(t, mols[0]).PoseBeads(docks[0].Genome)
	runner := esmacs.NewRunner(t, 1)
	cg, fg := esmacs.CG(), esmacs.FG()
	cg.EquilSteps, cg.ProdSteps, cg.MinimizeIters = 40, 200, 30 // the funnel's fast protocols
	fg.EquilSteps, fg.ProdSteps, fg.MinimizeIters = 80, 500, 30
	start = time.Now()
	_ = runner.Estimate(mols[0], pose, cg)
	rate("esmacs.cg_estimates_per_s", 1, time.Since(start))
	start = time.Now()
	_ = runner.Estimate(mols[0], pose, fg)
	rate("esmacs.fg_estimates_per_s", 1, time.Since(start))
	sys := md.NewSystem(t, mols[0], nil)
	integ := md.DefaultIntegrator()
	integ.InitVelocities(sys, r)
	const steps = 2000
	start = time.Now()
	for i := 0; i < steps; i++ {
		integ.Step(sys, r)
	}
	rate("md.steps_per_s", steps, time.Since(start))

	// ---- aae, latent ----
	clouds := make([][]geom.Vec3, 8)
	for i := range clouds {
		clouds[i] = make([]geom.Vec3, 64)
		for j := range clouds[i] {
			clouds[i][j] = geom.Vec3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}
		}
	}
	ae := aae.New(aae.DefaultConfig(64))
	const batches = 10
	start = time.Now()
	for i := 0; i < batches; i++ {
		_ = ae.TrainBatch(clouds)
	}
	rate("aae.train_batches_per_s", batches, time.Since(start))
	pts := make([][]float64, 400)
	for i := range pts {
		pts[i] = make([]float64, 16)
		for j := range pts[i] {
			pts[i][j] = r.NormFloat64()
		}
	}
	start = time.Now()
	_ = latent.LOF(pts, 20)
	rate("latent.lof_points_per_s", float64(len(pts)), time.Since(start))

	// ---- campaign: the three funnel drivers on one small config ----
	cfg := impeccable.DefaultConfig(t)
	cfg.LibrarySize, cfg.TrainSize, cfg.CGCount, cfg.TopCompounds, cfg.OutliersPer = 1500, 30, 2, 1, 1
	cfg.FastProtocols, cfg.Seed = true, 7
	serial := func(c impeccable.Config) (*impeccable.Result, error) {
		c.Workers = 1
		return impeccable.RunCampaign(c)
	}
	walls := map[string]*impeccable.Result{}
	for _, d := range []struct {
		name string
		run  func(impeccable.Config) (*impeccable.Result, error)
	}{
		{"sequential", impeccable.RunCampaign},
		{"streaming", impeccable.RunCampaignStreaming},
		{"entk", impeccable.RunCampaignViaEnTK},
		{"serial", serial},
	} {
		res, err := d.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: %s campaign probe: %w", d.name, err)
		}
		walls[d.name] = res
	}
	seq := walls["sequential"].Funnel.WallSeconds
	out["campaign.streaming_front_speedup"] = Value{Value: front(walls["sequential"]) / front(walls["streaming"]), Unit: "ratio"}
	out["campaign.entk_wall_ratio"] = Value{Value: walls["entk"].Funnel.WallSeconds / seq, Unit: "ratio"}
	out["campaign.parallel_speedup"] = Value{Value: walls["serial"].Funnel.WallSeconds / seq, Unit: "ratio"}

	// ---- blob ----
	if err := blobProbe(workDir, out); err != nil {
		return nil, err
	}
	// ---- journal, scheduler, http differentials ----
	if err := serviceProbe(workDir, out); err != nil {
		return nil, err
	}
	return out, nil
}

// front is the wall-clock end of a campaign's S1 docking: the part of
// the funnel the streaming driver overlaps.
func front(res *impeccable.Result) float64 {
	var end float64
	for _, st := range res.Funnel.Timings {
		if st.Stage == "s1-dock" {
			end = st.StartS + st.Seconds
		}
	}
	return end
}

// blobProbe times direct Put and Get of 64 KiB objects.
func blobProbe(workDir string, out map[string]Value) error {
	dir, err := os.MkdirTemp(workDir, "probe-blob-")
	if err != nil {
		return fmt.Errorf("bench: blob probe: %w", err)
	}
	defer os.RemoveAll(dir)
	store, err := blob.Open(dir)
	if err != nil {
		return fmt.Errorf("bench: blob probe: %w", err)
	}
	var puts, gets series
	data := make([]byte, 64<<10)
	r := xrand.New(2)
	for i := 0; i < 50; i++ {
		for j := 0; j < len(data); j += 8 {
			v := r.Uint64()
			for k := 0; k < 8; k++ {
				data[j+k] = byte(v >> (8 * k))
			}
		}
		start := time.Now()
		ref, err := store.Put(data)
		puts.add(float64(time.Since(start)) / float64(time.Microsecond))
		if err != nil {
			return fmt.Errorf("bench: blob probe put: %w", err)
		}
		start = time.Now()
		_, err = store.Get(ref)
		gets.add(float64(time.Since(start)) / float64(time.Microsecond))
		if err != nil {
			return fmt.Errorf("bench: blob probe get: %w", err)
		}
	}
	out["blob.put_us_p50"] = Value{Value: puts.median(), Unit: "us", N: len(puts)}
	out["blob.get_us_p50"] = Value{Value: gets.median(), Unit: "us", N: len(gets)}
	return nil
}

// serviceProbe runs the same small burst of submissions and stub
// lifecycles against two coordinators — one journaling to a state dir,
// one in memory — and through two doors — HTTP and direct method calls —
// so the differences isolate what the journal and the HTTP layer cost.
func serviceProbe(workDir string, out map[string]Value) error {
	const n = 200
	req := impeccable.SubmitRequest{Tenant: "probe", Target: target, LibrarySize: 100, TrainSize: 10, FastProtocols: true}
	result := impeccable.WorkerResult{Summary: &impeccable.ResultSummary{}}
	// lifecycles submits, leases and completes n jobs by direct calls
	// and returns the per-job medians.
	lifecycles := func(stateDir string) (submitUS, leaseUS, lifecycleMS float64, err error) {
		opts := impeccable.ServiceOptions{StateDir: stateDir, RemoteOnly: true, CompactEvery: -1}
		svc, err := impeccable.OpenService(opts)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bench: service probe: %w", err)
		}
		defer svc.Shutdown()
		var submits, leases, lives series
		for i := 0; i < n; i++ {
			req.Seed = uint64(i + 1)
			start := time.Now()
			if _, err := svc.Submit(req); err != nil {
				return 0, 0, 0, fmt.Errorf("bench: service probe submit: %w", err)
			}
			submits.add(float64(time.Since(start)) / float64(time.Microsecond))
			t1 := time.Now()
			grant, err := svc.Lease("probe-worker", 0)
			if err != nil || grant == nil {
				return 0, 0, 0, fmt.Errorf("bench: service probe lease: %v", err)
			}
			leases.add(float64(time.Since(t1)) / float64(time.Microsecond))
			if err := svc.Complete("probe-worker", grant.Token, grant.JobID, result); err != nil {
				return 0, 0, 0, fmt.Errorf("bench: service probe complete: %w", err)
			}
			lives.add(ms(time.Since(start)))
		}
		return submits.median(), leases.median(), lives.median(), nil
	}
	dir, err := os.MkdirTemp(workDir, "probe-state-")
	if err != nil {
		return fmt.Errorf("bench: service probe: %w", err)
	}
	defer os.RemoveAll(dir)
	directUS, leaseUS, durableMS, err := lifecycles(dir)
	if err != nil {
		return err
	}
	_, _, memoryMS, err := lifecycles("")
	if err != nil {
		return err
	}
	out["scheduler.lease_us_p50"] = Value{Value: leaseUS, Unit: "us", N: n}
	out["journal.cost_ms_per_job"] = Value{Value: durableMS - memoryMS, Unit: "ms", N: n}

	// The same submissions through HTTP, on a fresh state dir.
	dir2, err := os.MkdirTemp(workDir, "probe-http-")
	if err != nil {
		return fmt.Errorf("bench: service probe: %w", err)
	}
	defer os.RemoveAll(dir2)
	c, _, err := openCluster(impeccable.ServiceOptions{StateDir: dir2, RemoteOnly: true, CompactEvery: -1}, nil)
	if err != nil {
		return err
	}
	defer c.close()
	var viaHTTP series
	for i := 0; i < n; i++ {
		req.Seed = uint64(i + 1)
		_, ack, err := c.submit(req)
		if err != nil {
			return err
		}
		viaHTTP.add(float64(ack) / float64(time.Microsecond))
	}
	out["http.overhead_us"] = Value{Value: viaHTTP.median() - directUS, Unit: "us", N: n}
	return nil
}
