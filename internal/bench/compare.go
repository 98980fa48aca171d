package bench

import (
	"fmt"
	"io"
	"sort"
)

// Compare prints one row per (workload, end-to-end metric) of two
// reports with both values and the change, and reports whether the new
// report regressed: a metric worse than the old one by more than its
// bound, a workload that failed a larger share of its operations, or a
// workload that disappeared. When a report holds several results of one
// workload (one per seed), their median is compared and the new
// report's run-to-run spread (interquartile range over median) is shown
// beside it: a change smaller than the spread is not resolved.
func Compare(w io.Writer, old, new *Report) (regressed bool) {
	if old.Fingerprint != new.Fingerprint {
		fmt.Fprintf(w, "warning: fingerprints differ (%+v vs %+v); timings are not comparable\n",
			old.Fingerprint, new.Fingerprint)
	}
	olds, news := byWorkload(old), byWorkload(new)
	names := make([]string, 0, len(olds))
	for name := range olds {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %8s %7s %7s\n", "workload", "metric", "old", "new", "change", "bound", "spread")
	for _, name := range names {
		o, n := olds[name], news[name]
		if len(n) == 0 {
			fmt.Fprintf(w, "%-16s missing from the new report: REGRESSION\n", name)
			regressed = true
			continue
		}
		if of, nf := failedShare(o), failedShare(n); nf > of {
			fmt.Fprintf(w, "%-16s failed share %.4f -> %.4f: REGRESSION\n", name, of, nf)
			regressed = true
		}
		for _, d := range EndToEnd {
			ov, nv := medianOf(o, d.Name), medianOf(n, d.Name)
			change := 0.0
			if ov != 0 {
				change = (nv - ov) / ov
			}
			worse := change
			if d.Better == Higher {
				worse = -change
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %+7.1f%% %6.0f%% %6.1f%%%s\n",
				name, d.Name, ov, nv, 100*change, 100*d.Bound, 100*spread(valuesOf(n, d.Name)), verdict)
		}
	}
	return regressed
}

func byWorkload(r *Report) map[string][]*Result {
	out := map[string][]*Result{}
	for _, res := range r.Results {
		out[res.Workload] = append(out[res.Workload], res)
	}
	return out
}

func valuesOf(results []*Result, metric string) series {
	var s series
	for _, r := range results {
		s.add(r.EndToEnd[metric].Value)
	}
	return s
}

func medianOf(results []*Result, metric string) float64 { return valuesOf(results, metric).median() }

func failedShare(results []*Result) float64 {
	var attempted, failed int64
	for _, r := range results {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
