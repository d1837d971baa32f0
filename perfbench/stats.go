package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: p99 needs 1000 samples, and a smaller run reports the
// highest percentile its sample supports instead.
const minBeyond = 10

// tail is a tail-latency reading: the percentile actually used, its
// value, the sample count and how many samples lie beyond it.
type tail struct {
	P      float64 // percentile used, e.g. 99 or 97.5
	Value  float64
	N      int
	Beyond int
}

// tailPercentile returns p99 of xs when at least minBeyond samples lie
// beyond it, and otherwise the highest percentile that still has
// minBeyond samples beyond it (never below the median). Values are
// taken by nearest rank, so the reading is always an observed sample.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	p := math.Min(0.99, 1-float64(minBeyond)/float64(n))
	if p < 0.5 {
		p = 0.5
	}
	k := rankIndex(p, n)
	return tail{P: 100 * p, Value: s[k], N: n, Beyond: n - k - 1}
}

// rankIndex is the zero-based nearest-rank index of quantile p in a
// sorted sample of n.
func rankIndex(p float64, n int) int {
	k := int(math.Ceil(p*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// quantile is the nearest-rank quantile p (0..1) of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[rankIndex(p, len(xs))]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
