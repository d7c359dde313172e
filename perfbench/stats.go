package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"

	"repro/internal/trace"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs,
// interpolating linearly between the two nearest order statistics, or
// 0 for none. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// histBase is trace.StatsSink's latency-bucket ratio: bucket i holds
// job durations in [histBase^i, histBase^(i+1)).
const histBase = 1.25

// histPercentile returns the p-th percentile (0 < p <= 100) of the
// job latencies folded into c, interpolated geometrically by rank
// inside the histogram bucket that holds rank p/100·Jobs.
//
// ClassStats.ApproxPercentile answers with bucket midpoints only, so
// it reads the same across seeds and hides any change smaller than a
// bucket (25%). Interpolating by rank moves with the distribution and
// repeats exactly for one seed. The bucket counts are read back through
// ApproxPercentile, the histogram's only public view; the lowest and
// highest occupied buckets are clipped to DurMin and DurMax.
func histPercentile(c trace.ClassStats, p float64) float64 {
	n := c.Jobs
	if n == 0 {
		return 0
	}
	// bucketOf(k) is the midpoint of the bucket holding the k-th
	// shortest job: ApproxPercentile uses rank ceil(p/100·n).
	bucketOf := func(k int) float64 {
		return c.ApproxPercentile(100 * (float64(k) - 0.5) / float64(n))
	}
	rank := p / 100 * float64(n)
	for first := 1; ; {
		mid := bucketOf(first)
		lo, hi := first, n
		for lo < hi {
			m := (lo + hi + 1) / 2
			if bucketOf(m) == mid {
				lo = m
			} else {
				hi = m - 1
			}
		}
		last := lo
		if float64(last) >= rank || last == n {
			lower, upper := mid/math.Sqrt(histBase), mid*math.Sqrt(histBase)
			if first == 1 {
				lower = c.DurMin
			}
			if last == n {
				upper = c.DurMax
			}
			frac := (rank - float64(first-1)) / float64(last-first+1)
			return lower * math.Pow(upper/lower, frac)
		}
		first = last + 1
	}
}

// digest is the hex SHA-256 of an output text.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}
