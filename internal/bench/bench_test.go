package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	ramp := func(n int) series {
		s := make(series, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n     int
		level float64
	}{
		{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		level, v := ramp(tc.n).tail()
		if level != tc.level {
			t.Errorf("n=%d: level %g, want %g", tc.n, level, tc.level)
		}
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > v {
				beyond++
			}
		}
		if level > 50 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, level)
		}
	}
	if got := (series{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := (series{}).median(); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "client.submit", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "coordinator.submit", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "coordinator.submit", Start: at(20), End: at(50)},  // overlaps 2
		{ID: 4, Parent: 1, Name: "coordinator.submit", Start: at(90), End: at(120)}, // runs past the parent
		{ID: 5, Parent: 3, Name: "journal.append", Start: at(25), End: at(35)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: at(50), 2: at(20), 3: at(20), 4: at(30), 5: at(10)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestRecorderInheritsJobAndToleratesNil(t *testing.T) {
	var off *recorder
	if id := off.reserve(); id != 0 {
		t.Fatalf("nil recorder reserved span %d", id)
	}
	off.finish(0, 0, "j", "x", time.Now(), time.Now())
	if off.snapshot() != nil {
		t.Fatal("nil recorder has spans")
	}

	rec := newRecorder()
	now := time.Now()
	parent := rec.reserve()
	rec.add(parent, "", "coordinator.submit", now, now.Add(time.Millisecond))
	rec.finish(parent, 0, "", "client.submit", now, now.Add(2*time.Millisecond))
	rec.setJob(parent, "job-000001")
	for _, s := range rec.snapshot() {
		if s.Job != "job-000001" {
			t.Errorf("span %s has job %q", s.Name, s.Job)
		}
	}
}

func TestParseProm(t *testing.T) {
	const text = `# HELP impeccable_journal_appends_total Events appended.
# TYPE impeccable_journal_appends_total counter
impeccable_journal_appends_total 42
impeccable_worker_cache_hits_total{cache="score"} 7
impeccable_worker_cache_hits_total{cache="feature"} 3
impeccable_tenant_rejections_total{tenant="a\"b\\c",reason="queue_full"} 2
impeccable_journal_fsync_seconds_bucket{le="+Inf"} 9
impeccable_journal_fsync_seconds_sum 0.0125
impeccable_journal_fsync_seconds_count 9
impeccable_uptime_seconds NaN
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		want  float64
		name  string
		match []string
	}{
		{42, famJournalAppends, nil},
		{10, famWorkerHits, nil},
		{7, famWorkerHits, []string{"cache", "score"}},
		{2, famRejections, []string{"tenant", `a"b\c`}},
		{9, famJournalFsyncN, nil},
		{0.0125, famJournalFsyncSum, nil},
		{0, "impeccable_no_such_family", nil},
	} {
		if got := p.sum(tc.name, tc.match...); got != tc.want {
			t.Errorf("sum(%s %v) = %g, want %g", tc.name, tc.match, got, tc.want)
		}
	}
	for _, bad := range []string{"no_value", `x{a="b" 1`, "x{a=b} 1", "x one"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	s := sizesFor(15)
	for _, w := range Workloads {
		a, err := generate(w, 7, s)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, s)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated two different plans", w)
		}
		c, _ := generate(w, 8, s)
		if reflect.DeepEqual(a.Measured, c.Measured) {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", w)
		}
	}
	offsets := func(seed uint64) []uint64 {
		p, _ := generate(FunnelCold, seed, s)
		var out []uint64
		for _, sub := range p.Measured {
			out = append(out, sub.Req.LibOffset)
		}
		return out
	}
	if reflect.DeepEqual(offsets(7), offsets(8)) {
		t.Error("funnel-cold: seeds 7 and 8 picked the same windows in the same order")
	}
	seen := map[uint64]bool{}
	for _, off := range offsets(7) {
		if seen[off] || off == 0 {
			t.Errorf("funnel-cold: window %d repeated or is the warm-up window", off)
		}
		seen[off] = true
	}
	if _, err := generate("no-such-workload", 1, s); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestControlTrafficKeepsLightJobsOutOfTheBacklogBurst(t *testing.T) {
	s := sizesFor(15)
	p, err := generate(ControlPlane, 3, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Measured) != s.Lifecycles {
		t.Fatalf("%d submissions, want %d", len(p.Measured), s.Lifecycles)
	}
	light, seeds := 0, map[uint64]bool{}
	for i, sub := range p.Measured {
		if sub.Light {
			light++
			if i < s.Backlog {
				t.Errorf("submission %d is light, inside the first %d", i, s.Backlog)
			}
		}
		if seeds[sub.Req.Seed] {
			t.Errorf("job seed %d used twice", sub.Req.Seed)
		}
		seeds[sub.Req.Seed] = true
	}
	if want := (s.Lifecycles - s.Backlog) / (s.LightEvery + 1); light < want-1 || light > want+1 {
		t.Errorf("%d light jobs, want about %d", light, want)
	}
}

// TestMetricTablesMatchBenchmarkJSON holds BENCHMARK.json, which the
// driver reads, equal to the tables the harness reports from.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads %v, harness has %v", names, Workloads)
	}
	same := func(kind string, got []metric, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != string(w.Better) || g.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, harness has %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", file.EndToEnd, EndToEnd)
	same("per_layer", file.PerLayer, PerLayer)
}

func TestCompare(t *testing.T) {
	report := func(scale float64, failed int64) *Report {
		r := &Result{Workload: ControlPlane, Attempted: 1000, Failed: failed, EndToEnd: map[string]Value{}}
		for _, d := range EndToEnd {
			v := 100.0
			if d.Better == Higher {
				v /= scale
			} else {
				v *= scale
			}
			r.EndToEnd[d.Name] = Value{Value: v, Unit: d.Unit}
		}
		return &Report{Fingerprint: fingerprint(), Results: []*Result{r}}
	}
	var out bytes.Buffer
	if Compare(&out, report(1, 0), report(1, 0)) {
		t.Errorf("identical reports compared as a regression:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), ControlPlane); rows != len(EndToEnd) {
		t.Errorf("%d rows, want one per end-to-end metric (%d):\n%s", rows, len(EndToEnd), out.String())
	}
	out.Reset()
	if !Compare(&out, report(1, 0), report(1.2, 0)) {
		t.Errorf("a 20%% slowdown passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no row flagged:\n%s", out.String())
	}
	if Compare(&out, report(1.2, 0), report(1, 0)) {
		t.Error("a 20% speed-up compared as a regression")
	}
	if !Compare(&out, report(1, 0), report(1, 3)) {
		t.Error("a higher failed share passed")
	}
	if !Compare(&out, report(1, 0), &Report{Fingerprint: fingerprint()}) {
		t.Error("a report missing a workload passed")
	}
}

func TestGoldenCheck(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sizes{sizesFor(15), miniSizes()} {
		for _, w := range pool(s.Library) {
			for _, req := range []struct{ cg, top, out int }{{s.ColdCG, s.ColdTop, s.ColdOut}, {s.WarmCG, s.WarmTop, s.WarmOut}} {
				if _, ok := g[requestKey(s.campaign(w, req.cg, req.top, req.out))]; !ok {
					t.Errorf("golden file lacks %s", requestKey(s.campaign(w, req.cg, req.top, req.out)))
				}
			}
		}
	}
}

// TestMiniature runs a two-campaign / two-hundred-job miniature of every
// workload through the whole harness, output checks included.
func TestMiniature(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			// One workload also takes the traced path.
			traced := w == ControlPlane
			res, err := Run(Options{Workload: w, Seed: 5, Seconds: 1, Trace: traced, WorkDir: t.TempDir(), mini: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			for _, d := range EndToEnd {
				if v, ok := res.EndToEnd[d.Name]; !ok || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.Name, v.Value, ok)
				}
			}
			var line struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(res.DriverLine(false)), &line); err != nil || len(line.Metrics) != len(EndToEnd) {
				t.Errorf("driver line has %d metrics (err %v), want %d", len(line.Metrics), err, len(EndToEnd))
			}
			if !traced {
				return
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			for _, name := range []string{
				"http.submit_server_ms_p50", "http.complete_server_ms_p50", "http.transport_us_p50",
				"journal.appends_per_job", "journal.fsyncs_per_job", "blob.puts_per_job",
				"provenance.proof_ms_p50", "obs.series", "trace.spans",
			} {
				if v := res.PerLayer[name]; !(v.Value > 0) {
					t.Errorf("per-layer metric %s = %v, want > 0", name, v.Value)
				}
			}
			if v := res.PerLayer["scheduler.light_wait_slots_max"]; v.Value > 2 {
				t.Errorf("light job waited %v slots", v.Value)
			}
		})
	}
}

func TestProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel probes take about ten seconds")
	}
	got, err := probes(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range got {
		if !(v.Value > 0) && name != "journal.cost_ms_per_job" && name != "http.overhead_us" {
			t.Errorf("probe %s = %v, want > 0", name, v.Value)
		}
	}
	defined := map[string]bool{}
	for _, d := range PerLayer {
		defined[d.Name] = true
	}
	for name := range got {
		if !defined[name] {
			t.Errorf("probe %s is not a declared per-layer metric", name)
		}
	}
}
