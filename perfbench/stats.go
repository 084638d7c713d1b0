package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is one or two samples reported
// as a distribution, and does not repeat from run to run.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest nearest-rank percentile of a sample set that still
// has minBeyond samples above it.
type tail struct {
	Pct   float64 // percentile, 0-100
	Value float64
	N     int // samples in the set
}

// tailPercentile returns the highest percentile with at least minBeyond
// samples beyond it: the (n-minBeyond)-th smallest of n samples. It refuses
// (ok false) below minBeyond+1 samples, where no sample has that many above
// it.
func tailPercentile(xs []float64) (t tail, ok bool) {
	n := len(xs)
	rank := n - minBeyond
	if rank < 1 {
		return tail{N: n}, false
	}
	s := sortedCopy(xs)
	return tail{Pct: 100 * float64(rank) / float64(n), Value: s[rank-1], N: n}, true
}

// kindMedians returns one median per sample kind. A median over a mixture
// of kinds with different costs lands between their modes and jumps from
// run to run with the mix; per-kind medians stay on their own mode.
func kindMedians(kinds []string, xs []float64) map[string]float64 {
	by := map[string][]float64{}
	for i, k := range kinds {
		by[k] = append(by[k], xs[i])
	}
	out := make(map[string]float64, len(by))
	for k, v := range by {
		out[k] = median(v)
	}
	return out
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the result format: a letter or
// digit first, then at most 63 letters, digits, '_', '.' or '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// repeatFrac is the share of fragmentation applies whose input another
// apply of the same run already had: 1 - distinct inputs / applies. It is
// the ceiling on what a cache of fragmented machines keyed by that input
// could save.
func repeatFrac[K comparable](inputs []K) float64 {
	if len(inputs) == 0 {
		return 0
	}
	distinct := map[K]bool{}
	for _, in := range inputs {
		distinct[in] = true
	}
	return 1 - float64(len(distinct))/float64(len(inputs))
}

// quartileSpread is the interquartile range of xs over its median, the
// run-to-run spread a bound is compared against. It follows Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartileSpread(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, fmt.Errorf("need at least 2 samples, have %d", len(xs))
	}
	s := sortedCopy(xs)
	q := func(p float64) float64 {
		m := float64(len(s)+1) * p
		j := int(math.Floor(m))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0, fmt.Errorf("median is 0")
	}
	return (q(0.75) - q(0.25)) / med, nil
}
