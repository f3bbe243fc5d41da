package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an
// even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
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

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the candidates of the tail rule, highest first.
// The set is sparse on purpose: a workload whose sample count varies a
// little from seed to seed keeps reporting the same percentile.
var tailPercentiles = []float64{99.9, 99, 90}

// tailRule picks the highest candidate percentile that has at least ten
// of n samples strictly beyond its nearest rank, and returns it with
// that count. With too few samples for any candidate it falls back to
// the maximum (p100, nothing beyond), which callers report as such.
func tailRule(n int) (p float64, beyond int) {
	for _, p := range tailPercentiles {
		if b := n - rank(n, p); b >= 10 {
			return p, b
		}
	}
	return 100, 0
}

// poissonSchedule returns the arrival offsets of a Poisson process over
// [0, dur) conditioned on exactly n arrivals: n sorted uniform offsets.
// Fixing the count keeps the offered load equal from seed to seed while
// the arrival times stay Poisson. The generator is seeded by seed
// alone: the same seed always gives the same schedule.
func poissonSchedule(seed int64, stream uint64, n int, dur time.Duration) []time.Duration {
	rng := newRand(seed, stream)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// newRand returns the benchmark's deterministic generator for one
// (seed, stream) pair; streams keep independent draws independent.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// zipfDraw draws one of the candidate indexes with Zipf(1) weight
// 1/(i+1) by index: the lower the index, the hotter.
func zipfDraw(rng *rand.Rand, cands []int) int {
	total := 0.0
	for _, i := range cands {
		total += 1 / float64(i+1)
	}
	u := rng.Float64() * total
	for _, i := range cands {
		if u -= 1 / float64(i+1); u < 0 {
			return i
		}
	}
	return cands[len(cands)-1]
}
