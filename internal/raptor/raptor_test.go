package raptor

import (
	"math"
	"testing"

	"impeccable/internal/hpc"
	"impeccable/internal/xrand"
)

// dockDurations samples per-call docking durations with the long tail
// §6.1.2 describes (lognormal-ish around mean).
func dockDurations(n int, mean float64, seed uint64) []float64 {
	r := xrand.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = mean * math.Exp(r.Norm(0, 0.5)) / math.Exp(0.125)
	}
	return out
}

func TestRunSimCompletesAll(t *testing.T) {
	clk := hpc.NewSimClock()
	cfg := DefaultConfig(10)
	o := New(clk, cfg)
	durs := dockDurations(5000, 0.4, 1)
	st := o.RunSim(durs, clk)
	if st.Calls != 5000 {
		t.Fatalf("calls = %d", st.Calls)
	}
	if st.End <= st.Start || st.Throughput <= 0 {
		t.Fatalf("stats malformed: %+v", st)
	}
	total := 0
	for _, d := range st.Dispatched {
		total += d
	}
	if total != 5000 {
		t.Fatalf("dispatched total = %d", total)
	}
	if st.Bulks <= 0 {
		t.Fatal("no bulks recorded")
	}
}

func TestThroughputBoundedByCapacity(t *testing.T) {
	// Throughput cannot exceed workers × slots / meanDuration; with high
	// utilization it should approach it.
	clk := hpc.NewSimClock()
	cfg := DefaultConfig(20)
	o := New(clk, cfg)
	mean := 0.4
	st := o.RunSim(dockDurations(20000, mean, 2), clk)
	capacity := float64(cfg.Workers*cfg.SlotsPerWorker) / mean
	if st.Throughput > capacity*1.05 {
		t.Fatalf("throughput %v exceeds capacity %v", st.Throughput, capacity)
	}
	if st.Throughput < capacity*0.6 {
		t.Fatalf("throughput %v below 60%% of capacity %v (poor load balance)",
			st.Throughput, capacity)
	}
	t.Logf("throughput %.0f calls/s of capacity %.0f (%.0f%%)",
		st.Throughput, capacity, 100*st.Throughput/capacity)
}

func TestNearLinearScaling(t *testing.T) {
	// §6.1.2: near-linear scaling to thousands of nodes. Throughput at
	// 8× workers must be at least 6× the 1× throughput (callsPerWorker
	// held constant).
	mean := 0.4
	through := func(workers int) float64 {
		clk := hpc.NewSimClock()
		cfg := DefaultConfig(workers)
		o := New(clk, cfg)
		n := workers * 600
		return o.RunSim(dockDurations(n, mean, 3), clk).Throughput
	}
	t1 := through(16)
	t8 := through(128)
	if t8 < 6*t1 {
		t.Fatalf("scaling broke: 16 workers %.0f/s, 128 workers %.0f/s (%.1fx)",
			t1, t8, t8/t1)
	}
	t.Logf("16 workers %.0f/s → 128 workers %.0f/s (%.2fx over 8x resources)", t1, t8, t8/t1)
}

func TestMultipleMastersRelieveBottleneck(t *testing.T) {
	// With master overhead inflated, a single master saturates; adding
	// masters must raise throughput (§6.1.2 mechanism ii).
	mean := 0.05
	run := func(masters int) float64 {
		clk := hpc.NewSimClock()
		cfg := DefaultConfig(100)
		cfg.Masters = masters
		cfg.BulkSize = 16
		cfg.MasterOverhead = 0.01 // deliberately expensive dispatch
		o := New(clk, cfg)
		return o.RunSim(dockDurations(40000, mean, 4), clk).Throughput
	}
	one := run(1)
	four := run(4)
	if four < 1.5*one {
		t.Fatalf("extra masters did not help: 1 master %.0f/s, 4 masters %.0f/s", one, four)
	}
	t.Logf("1 master %.0f/s → 4 masters %.0f/s", one, four)
}

func TestBulkingLimitsCommunicationEvents(t *testing.T) {
	clk := hpc.NewSimClock()
	cfg := DefaultConfig(10)
	cfg.BulkSize = 500
	o := New(clk, cfg)
	st := o.RunSim(dockDurations(10000, 0.2, 5), clk)
	// Bulks should be far fewer than calls. The prefetch window bounds
	// bulk size too, so allow generous slack.
	if st.Bulks > st.Calls/5 {
		t.Fatalf("bulking ineffective: %d bulks for %d calls", st.Bulks, st.Calls)
	}
}

func TestLongTailLoadBalance(t *testing.T) {
	// A heavy-tailed workload must still keep workers' busy time
	// balanced (§6.1.2: the long tail poses a load-balancing challenge
	// solved by dynamic distribution).
	clk := hpc.NewSimClock()
	cfg := DefaultConfig(16)
	cfg.BulkSize = 8 // small bulks so balancing is dynamic
	o := New(clk, cfg)
	r := xrand.New(6)
	durs := make([]float64, 20000)
	for i := range durs {
		if r.Bool(0.05) {
			durs[i] = 5 // 100× the typical call
		} else {
			durs[i] = 0.05
		}
	}
	st := o.RunSim(durs, clk)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range st.WorkerBusy {
		lo, hi = math.Min(lo, b), math.Max(hi, b)
	}
	if hi > 2.0*lo {
		t.Fatalf("imbalanced busy times: min %.1f s, max %.1f s", lo, hi)
	}
}

func TestUtilizationMetric(t *testing.T) {
	clk := hpc.NewSimClock()
	cfg := DefaultConfig(8)
	o := New(clk, cfg)
	st := o.RunSim(dockDurations(10000, 0.3, 7), clk)
	u := st.Utilization(cfg.SlotsPerWorker)
	if u <= 0 || u > 1.0001 {
		t.Fatalf("utilization = %v", u)
	}
	if u < 0.5 {
		t.Fatalf("utilization %v too low for a saturated run", u)
	}
}

func TestDeterministicSim(t *testing.T) {
	run := func() Stats {
		clk := hpc.NewSimClock()
		o := New(clk, DefaultConfig(10))
		return o.RunSim(dockDurations(3000, 0.3, 8), clk)
	}
	a, b := run(), run()
	if a.End != b.End || a.Throughput != b.Throughput || a.Bulks != b.Bulks {
		t.Fatalf("sim not deterministic: %+v vs %+v", a, b)
	}
}

func TestFailureRecoveryCompletesAll(t *testing.T) {
	// Workers crash at a 1 % per-call rate; every call must still
	// complete exactly once (no losses, no phantom completions).
	clk := hpc.NewSimClock()
	cfg := DefaultConfig(12)
	cfg.FailureProb = 0.01
	cfg.RestartDelay = 2
	cfg.FailureSeed = 3
	o := New(clk, cfg)
	st := o.RunSim(dockDurations(8000, 0.2, 9), clk)
	if st.Calls != 8000 {
		t.Fatalf("calls = %d", st.Calls)
	}
	if st.Failures == 0 {
		t.Fatal("no failures injected at 1% rate over 8000 calls")
	}
	if st.Requeued == 0 {
		t.Fatal("failures occurred but nothing was requeued")
	}
	if st.End <= st.Start {
		t.Fatal("run did not finish")
	}
	t.Logf("survived %d worker crashes, requeued %d calls, throughput %.0f/s",
		st.Failures, st.Requeued, st.Throughput)
}

func TestFailureThroughputDegradesGracefully(t *testing.T) {
	run := func(p float64) float64 {
		clk := hpc.NewSimClock()
		cfg := DefaultConfig(16)
		cfg.FailureProb = p
		cfg.RestartDelay = 5
		o := New(clk, cfg)
		return o.RunSim(dockDurations(10000, 0.2, 10), clk).Throughput
	}
	clean := run(0)
	mild := run(0.002)
	heavy := run(0.02)
	if mild >= clean || heavy >= mild {
		t.Fatalf("throughput not monotone in failure rate: %v, %v, %v", clean, mild, heavy)
	}
	// A 0.2 % per-call crash rate (one crash per worker per ~500 calls)
	// must cost only a modest fraction of throughput.
	if mild < 0.7*clean {
		t.Fatalf("0.2%% failures cost too much: %v vs %v", mild, clean)
	}
	t.Logf("throughput: clean %.0f/s, 0.2%% failures %.0f/s, 2%% failures %.0f/s",
		clean, mild, heavy)
}

func TestFailureDeterministic(t *testing.T) {
	run := func() Stats {
		clk := hpc.NewSimClock()
		cfg := DefaultConfig(8)
		cfg.FailureProb = 0.02
		cfg.FailureSeed = 7
		o := New(clk, cfg)
		return o.RunSim(dockDurations(3000, 0.2, 11), clk)
	}
	a, b := run(), run()
	if a.Failures != b.Failures || a.End != b.End || a.Requeued != b.Requeued {
		t.Fatalf("fault injection not deterministic: %+v vs %+v", a, b)
	}
}

func TestEmptyWorkload(t *testing.T) {
	clk := hpc.NewSimClock()
	o := New(clk, DefaultConfig(4))
	st := o.RunSim(nil, clk)
	if st.Calls != 0 || st.Throughput != 0 {
		t.Fatalf("empty workload stats = %+v", st)
	}
}

func BenchmarkSimDispatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clk := hpc.NewSimClock()
		o := New(clk, DefaultConfig(32))
		o.RunSim(dockDurations(10000, 0.3, 1), clk)
	}
}
