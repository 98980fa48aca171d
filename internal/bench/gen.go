package bench

import (
	"fmt"
	"math"

	"impeccable"
	"impeccable/internal/xrand"
)

// Workload names.
const (
	FunnelCold    = "funnel-cold"
	FunnelWarm    = "funnel-warm"
	ControlPlane  = "control-plane"
	RestartReplay = "restart-replay"
)

// Workloads lists the workloads in the order "all" runs them.
var Workloads = []string{FunnelCold, FunnelWarm, ControlPlane, RestartReplay}

// sizes are the frozen workload sizes. They were calibrated on the
// 2-core reference box so that each measured phase takes about
// `seconds`; counts scale linearly with the budget and everything else
// is constant, so a run's work is a function of (seed, seconds) alone
// and count metrics repeat exactly.
type sizes struct {
	// Funnel campaigns: the front (library, train) is shared by the
	// cold and warm configurations so warm runs hit the docks cold runs
	// left behind; the tails differ.
	Library, Train            int
	ColdCG, ColdTop, ColdOut  int
	WarmCG, WarmTop, WarmOut  int
	ColdCampaigns             int
	WarmWindows, WarmCampaign int
	Smoke                     bool // run one small warm-up campaign in setup

	// Control plane.
	CaptureLibrary, CaptureTrain int
	Lifecycles                   int // job lifecycles in the measured phase
	Backlog                      int // flood tenant's standing queue depth
	LightEvery                   int // one light job per this many flood jobs

	// Restart and replay.
	StateJobs   int // terminal jobs in the prebuilt state dir
	QueuedJobs  int // jobs left queued in it
	Cycles      int // measured open/serve/shutdown cycles (restart-replay)
	CycleReads  int // result reads per cycle
	CycleProofs int // provenance proofs per cycle
	CycleJobs   int // lifecycles completed per cycle (restart-replay)
	TailCycles  int // restart cycles every other workload ends with
}

// Calibrated rates of the reference box, in operations per second of
// measured phase.
const (
	coldCampaignsPerS = 0.25
	warmCampaignsPerS = 0.25
	lifecyclesPerS    = 170
	restartCyclesPerS = 8.0
)

func sizesFor(seconds float64) sizes {
	n := func(rate float64, floor int) int {
		return max(floor, int(math.Round(seconds*rate)))
	}
	return sizes{
		Library: 3000, Train: 40,
		ColdCG: 2, ColdTop: 1, ColdOut: 1,
		WarmCG: 3, WarmTop: 2, WarmOut: 1,
		ColdCampaigns: n(coldCampaignsPerS, 2),
		WarmWindows:   2, WarmCampaign: n(warmCampaignsPerS, 2),
		Smoke: true,

		CaptureLibrary: 300, CaptureTrain: 12,
		Lifecycles: n(lifecyclesPerS, 110), Backlog: 50, LightEvery: 10,

		StateJobs: 1000, QueuedJobs: 20,
		Cycles: n(restartCyclesPerS, 4), CycleReads: 500, CycleProofs: 50, CycleJobs: 3,
		TailCycles: 16,
	}
}

// miniSizes is the miniature every workload runs under `go test`.
func miniSizes() sizes {
	return sizes{
		Library: 300, Train: 12,
		ColdCG: 2, ColdTop: 1, ColdOut: 1,
		WarmCG: 2, WarmTop: 1, WarmOut: 1,
		ColdCampaigns: 2,
		WarmWindows:   1, WarmCampaign: 2,

		CaptureLibrary: 300, CaptureTrain: 12,
		Lifecycles: 200, Backlog: 20, LightEvery: 10,

		StateJobs: 150, QueuedJobs: 5,
		Cycles: 4, CycleReads: 30, CycleProofs: 5, CycleJobs: 3,
		TailCycles: 2,
	}
}

// The fixed instance set: funnel workloads draw their library windows
// from poolWindows windows of one target, each with its own campaign
// seed. A fixed pool is what lets every (window, seed) result be checked
// against a golden file; the run's seed picks the order.
const (
	poolWindows = 8
	target      = "PLPro"
)

// The control-plane tenants: the flood keeps a standing backlog, the
// light tenant's occasional job is the latency a user would notice.
const (
	floodTenant = "flood"
	lightTenant = "light"
)

// window is one pool entry.
type window struct {
	Offset uint64
	Seed   uint64
}

// pool returns the instance set for a library size. Window 0 is kept
// out of the pool for the warm-up campaign, so it never warms a
// measured window.
func pool(library int) []window {
	out := make([]window, poolWindows)
	for i := range out {
		out[i] = window{Offset: uint64((i + 1) * library), Seed: uint64(101 + i)}
	}
	return out
}

// submission is one generated request.
type submission struct {
	Req impeccable.SubmitRequest
	// Light marks the latency-sensitive tenant's jobs on the control
	// plane; everything else is the flood.
	Light bool
}

// plan is everything a run feeds the program, generated from the seed
// before the run starts.
type plan struct {
	Smoke     *impeccable.SubmitRequest
	Setup     []impeccable.SubmitRequest // funnel-warm: the cold pass; control/restart: the captures
	Measured  []submission
	StateJobs []submission // restart-replay: what setup writes into the state dir
	Refill    []submission // restart-replay: flood jobs that keep the restored queue full
}

func (s sizes) campaign(w window, cg, top, out int) impeccable.SubmitRequest {
	return impeccable.SubmitRequest{
		Tenant: "science", Target: target,
		LibrarySize: s.Library, TrainSize: s.Train,
		CGCount: cg, TopCompounds: top, OutliersPer: out,
		Seed: w.Seed, LibOffset: w.Offset, FastProtocols: true,
	}
}

// generate builds the plan for one workload. It is a pure function of
// its arguments: the program sees only the requests it returns.
func generate(workload string, seed uint64, s sizes) (plan, error) {
	r := xrand.NewFrom(seed, 0xBE7C4)
	var p plan
	if s.Smoke {
		smoke := impeccable.SubmitRequest{
			Tenant: "science", Target: target, LibrarySize: 300, TrainSize: 12,
			CGCount: 2, TopCompounds: 1, OutliersPer: 1, Seed: 100, FastProtocols: true,
		}
		p.Smoke = &smoke
	}
	// Every seed runs the same windows — the first n of the pool — in
	// its own order. Windows differ in cost (a window's ligands decide
	// how long its docks run), so letting the seed pick *which* windows
	// would make runs with different seeds incomparable; the order is
	// what a seed may change without changing the work.
	shuffled := func(n int) ([]window, error) {
		windows := pool(s.Library)
		if n > len(windows) {
			return nil, fmt.Errorf("bench: %s needs %d windows, the pool has %d", workload, n, len(windows))
		}
		out := make([]window, n)
		for i, j := range r.Perm(n) {
			out[i] = windows[j]
		}
		return out, nil
	}
	switch workload {
	case FunnelCold:
		windows, err := shuffled(s.ColdCampaigns)
		if err != nil {
			return p, err
		}
		for _, w := range windows {
			p.Measured = append(p.Measured, submission{Req: s.campaign(w, s.ColdCG, s.ColdTop, s.ColdOut)})
		}
	case FunnelWarm:
		windows, err := shuffled(s.WarmWindows)
		if err != nil {
			return p, err
		}
		for _, w := range windows {
			p.Setup = append(p.Setup, s.campaign(w, s.ColdCG, s.ColdTop, s.ColdOut))
		}
		for k := 0; k < s.WarmCampaign; k++ {
			p.Measured = append(p.Measured, submission{Req: s.campaign(windows[k%len(windows)], s.WarmCG, s.WarmTop, s.WarmOut)})
		}
	case ControlPlane, RestartReplay:
		// Two captures: one whose summary stays inline in the journal
		// and one (two top compounds) that spills to the blob store.
		cs := s
		cs.Library, cs.Train = s.CaptureLibrary, s.CaptureTrain
		cw := pool(cs.Library)
		p.Setup = []impeccable.SubmitRequest{
			cs.campaign(cw[0], 2, 1, 1),
			cs.campaign(cw[1], 2, 2, 1),
		}
		for i := range p.Setup {
			p.Setup[i].Tenant = "capture"
		}
		if workload == RestartReplay {
			// The state dir is all flood: terminal jobs plus the queue a
			// restart must restore. After each restart the light tenant
			// submits a burst of jobs, which the scheduler serves in turn
			// with the restored queue; flood jobs refill the queue.
			p.StateJobs = jobs(r, p.Setup, floodTenant, s.StateJobs+s.QueuedJobs, 1)
			p.Measured = jobs(r, p.Setup, lightTenant, s.Cycles*s.CycleJobs, 1_000_000)
			p.Refill = jobs(r, p.Setup, floodTenant, 2*s.Cycles*s.CycleJobs, 2_000_000)
		} else {
			p.Measured = traffic(r, p.Setup, s.Lifecycles, s.LightEvery, s.Backlog, 1_000_000)
		}
	default:
		return p, fmt.Errorf("bench: unknown workload %q (have %v)", workload, Workloads)
	}
	return p, nil
}

// job builds one control-plane submission: one of the captured
// requests' bodies under the given tenant and its own seed.
func job(r *xrand.RNG, captures []impeccable.SubmitRequest, tenant string, seed uint64) submission {
	req := captures[r.Intn(len(captures))]
	req.Tenant, req.Seed = tenant, seed
	return submission{Req: req, Light: tenant == lightTenant}
}

// jobs generates n submissions of one tenant.
func jobs(r *xrand.RNG, captures []impeccable.SubmitRequest, tenant string, n int, firstSeed uint64) []submission {
	out := make([]submission, n)
	for i := range out {
		out[i] = job(r, captures, tenant, firstSeed+uint64(i))
	}
	return out
}

// traffic generates n control-plane submissions: the flood tenant's
// jobs with one light-tenant job at a seeded position inside every
// block of lightEvery flood jobs, after the first floodOnly jobs (the
// flood's standing backlog, which the client submits in one burst; a
// light job inside it would queue behind its own tenant, not behind the
// flood).
func traffic(r *xrand.RNG, captures []impeccable.SubmitRequest, n, lightEvery, floodOnly int, firstSeed uint64) []submission {
	out := make([]submission, 0, n)
	lightAt := -1
	for i := 0; len(out) < n; i++ {
		if i >= floodOnly && i%lightEvery == 0 {
			lightAt = r.Intn(lightEvery)
		}
		out = append(out, job(r, captures, floodTenant, firstSeed+uint64(len(out))))
		if i%lightEvery == lightAt && len(out) < n {
			out = append(out, job(r, captures, lightTenant, firstSeed+uint64(len(out))))
		}
	}
	return out
}
