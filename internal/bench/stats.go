package bench

import (
	"math"
	"sort"
)

// series is one named set of timing samples; the zero value is ready.
type series []float64

func (s *series) add(v float64) { *s = append(*s, v) }

// sorted returns an ascending copy.
func (s series) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the p50 by linear interpolation; 0 for an empty series.
func (s series) median() float64 { return quantile(s.sorted(), 0.5) }

// mean is the arithmetic mean; 0 for an empty series.
func (s series) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quantile interpolates the q-quantile of ascending samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailLevels are the percentiles the picker may report, ascending, in
// per-mille so the sample arithmetic stays in integers.
var tailLevels = []int{900, 950, 990, 999}

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the "percentile" is one or two outliers, not a level.
const minBeyond = 10

// tail picks the highest percentile of tailLevels that still has at
// least minBeyond samples beyond it and returns (level, value). With too
// few samples for even the lowest level it reports the median as p50,
// so a tail column never silently turns into a maximum.
func (s series) tail() (float64, float64) {
	sorted := s.sorted()
	n, level := len(sorted), 50.0
	for _, pm := range tailLevels {
		if below := (n*pm + 999) / 1000; n-below >= minBeyond {
			level = float64(pm) / 10
		}
	}
	return level, quantile(sorted, level/100)
}

// spread is the interquartile range over the median, the run-to-run
// steadiness measure the acceptance sets use. Quartiles follow Python's
// statistics.quantiles(values, n=4) (exclusive method), so the figure
// matches the driver's.
func spread(values series) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return sorted[j-1] + (sorted[j]-sorted[j-1])*frac
	}
	med := quantile(sorted, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
