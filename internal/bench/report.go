package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// Fingerprint identifies the hardware and toolchain a report was taken
// on; numbers from different fingerprints are not comparable.
type Fingerprint struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() Fingerprint {
	return Fingerprint{
		NProc: runtime.NumCPU(), CPU: cpuModel(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// Report is the file -out writes and -compare reads: one or more
// workload results under the fingerprint they were taken on.
type Report struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	Results     []*Result   `json:"results"`
}

// WriteReport writes a report file.
func WriteReport(path string, results []*Result) error {
	data, err := json.MarshalIndent(Report{Fingerprint: fingerprint(), Results: results}, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encoding report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing report: %w", err)
	}
	return nil
}

// ReadReport reads a report file.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: decoding report %s: %w", path, err)
	}
	return &r, nil
}

// Print writes a result for people: every metric by name with its unit
// and, for timings, the sample count behind it.
func (r *Result) Print(w io.Writer) {
	fp := fingerprint()
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  (%d cpus, %s, %s, GOMAXPROCS %d)\n",
		r.Workload, r.Seed, r.Seconds, fp.NProc, fp.CPU, fp.GoVersion, fp.GOMAXPROCS)
	fmt.Fprintf(w, "  %-36s %d\n  %-36s %d\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed)
	printMetrics(w, EndToEnd, r.EndToEnd)
	if r.PerLayer != nil {
		printMetrics(w, PerLayer, r.PerLayer)
		fmt.Fprintf(w, "  trace written to %s\n", r.TraceFile)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

func printMetrics(w io.Writer, defs []MetricDef, values map[string]Value) {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		note := ""
		if v.N > 0 {
			note = fmt.Sprintf("  n=%d", v.N)
		}
		if v.Level > 0 {
			note += fmt.Sprintf("  p%g", v.Level)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-8s%s\n", d.Name, v.Value, v.Unit, note)
	}
}

// DriverLine is the single JSON object the benchmark driver reads from
// the last line of standard output: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func (r *Result) DriverLine(traced bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := EndToEnd, r.EndToEnd
	if traced {
		defs, values = PerLayer, r.PerLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metric{Value: values[d.Name].Value, Unit: d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line)
}
