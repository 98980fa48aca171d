// Command impeccable-bench runs the end-to-end, layer-attributed
// benchmark of the funnel and the campaign service (internal/bench).
//
//	impeccable-bench [-workload all|<name>] [-seed n] [-runs k] [-seconds s] [-trace 0|1] [-out report.json]
//	impeccable-bench -compare old.json new.json
//	impeccable-bench -update-golden
//
// The last line of standard output of a single-workload run is the JSON
// object the benchmark driver reads. See README.md beside this file.
package main

import (
	"flag"
	"fmt"
	"os"

	"impeccable/internal/bench"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(bench.Workloads))
	seed := flag.Uint64("seed", 1, "workload seed: picks library windows, campaign order and tenant interleaving")
	runs := flag.Int("runs", 1, "run each workload this many times, on seeds seed, seed+1, ... (an acceptance set is -runs 10)")
	seconds := flag.Float64("seconds", 15, "budget of the measured phase; workload sizes scale with it")
	trace := flag.Int("trace", 0, "1 repeats each run with the span recorder on and reports the per-layer metrics")
	out := flag.String("out", "", "write the results to this report file (input to -compare)")
	workDir := flag.String("workdir", ".bench_build", "directory for state dirs (removed afterwards) and trace files")
	compare := flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
	updateGolden := flag.String("update-golden", "", "rerun the instance pool cold and write the golden file to this path")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two report files"))
		}
		old, err := bench.ReadReport(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		new, err := bench.ReadReport(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if bench.Compare(os.Stdout, old, new) {
			os.Exit(1)
		}
		return
	case *updateGolden != "":
		data, err := bench.UpdateGolden(*workDir, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
		if err == nil {
			err = os.WriteFile(*updateGolden, data, 0o644)
		}
		if err != nil {
			fail(err)
		}
		return
	}

	names := []string{*workload}
	if *workload == "all" {
		names = bench.Workloads
	}
	var results []*bench.Result
	correct := true
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			res, err := bench.Run(bench.Options{
				Workload: name, Seed: *seed + uint64(i), Seconds: *seconds, Trace: *trace != 0,
				WorkDir: *workDir, Log: os.Stderr,
			})
			if err != nil {
				fail(err)
			}
			res.Print(os.Stdout)
			fmt.Println(res.DriverLine(*trace != 0))
			results = append(results, res)
			correct = correct && res.Correct
		}
	}
	if *out != "" {
		if err := bench.WriteReport(*out, results); err != nil {
			fail(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "impeccable-bench:", err)
	os.Exit(2)
}
