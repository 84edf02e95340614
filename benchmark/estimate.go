package main

import "repro/internal/stats"

// fastest is the host-time estimator: the shortest of the windows the
// repeats at one seed took. The simulation is deterministic, so every
// repeat does identical work and the only thing that differs between
// them is interference from the host, which only ever adds time.
//
// The grain is the whole window on purpose. The issue that defined this
// benchmark took the minimum of each 50-tick slice across the repeats
// and summed those (the "envelope"), which is sound only if every slice
// carries its share of the collector's work. It does not: on one core a
// collection of full_stack's 370 MB heap takes 150 ms, there are a
// handful per window, and each lands in a different slice from repeat
// to repeat, so the per-slice minimum filters the collector out. Over
// 16 windows of mdtest_create the envelope of two read 4.4% below the
// faster of the two and the envelope of four 8% below, while spreading
// 1.7x as wide; on zipf_read, which does not allocate, the two
// estimators agree within 2% and spread alike.
func fastest(windowsNs []int64) int64 {
	if len(windowsNs) == 0 {
		return 0
	}
	lo := windowsNs[0]
	for _, w := range windowsNs[1:] {
		lo = min(lo, w)
	}
	return lo
}

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// spread is the per-repeat summary printed beside a host metric so a
// reader sees the noise the reported value was extracted from.
type spread struct{ Median, Min, Max float64 }

func spreadOf(xs []float64) spread {
	q := stats.Percentiles(xs, 0, 0.5, 1)
	return spread{Min: q[0], Median: q[1], Max: q[2]}
}

func median(xs []float64) float64 { return stats.Percentile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
