package main

import (
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// repeat runs op until both minReps repetitions and window have been
// spent, and returns each repetition's duration in seconds plus the
// whole timed window. Every end-to-end number is a statistic over such
// a window, so a short operation is measured many times and a long one
// at least minReps times. op receives the repetition index.
func repeat(window time.Duration, minReps int, op func(rep int)) (secs []float64, total time.Duration) {
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < window; rep++ {
		t0 := time.Now()
		op(rep)
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, time.Since(start)
}
