package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of ds:
// the smallest sample with at least p·n samples at or below it. It
// sorts ds in place and returns 0 for an empty slice.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	rank := int(math.Ceil(p * float64(len(ds))))
	return ds[max(rank, 1)-1]
}

// geomean is the geometric mean of positive values (0 if any is not).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs)))
}

// median of float64 values (the mean of the middle two for even n).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is num/den, or 0 when there is no base to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
