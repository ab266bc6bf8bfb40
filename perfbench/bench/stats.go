package bench

import (
	"math"
	"sort"
	"time"
)

// MinBeyond is the number of samples that must lie beyond a percentile
// for the benchmark to report it; a tail read from fewer samples is
// mostly noise.
const MinBeyond = 10

// Percentile returns the p-th percentile (0 < p < 100, nearest rank) of
// the samples. ok is false, and the percentile is dropped, when fewer
// than MinBeyond samples lie beyond it. The median (p = 50) of a
// non-empty set is always reported.
func Percentile(samples []time.Duration, p float64) (v time.Duration, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	if p != 50 && n-rank < MinBeyond {
		return 0, false
	}
	return s[rank-1], true
}

// Median is the nearest-rank median; zero for no samples.
func Median(samples []time.Duration) time.Duration {
	v, _ := Percentile(samples, 50)
	return v
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
