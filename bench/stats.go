package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the q-quantile of an unsorted sample.
func percentile(v []float64, q float64) float64 { return quantile(sorted(v), q) }

// quantile is the linearly interpolated q-quantile (q in [0,1]) of an
// ascending sample; NaN for an empty one.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// midmean is the mean of the middle half of v (the interquartile mean): it
// drops the quarter of rounds a host disturbance inflated and the quarter
// that got lucky, and averages what is left, so it moves less from run to
// run than a median of twelve values does.
func midmean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	cut := len(s) / 4
	mid := s[cut : len(s)-cut]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// trimmedMean is the mean of the values at or under the q-quantile of the
// ascending sample s, and the sum of the values over it. On this host a closed loop of 20 us jobs
// can spend four fifths of its wall-clock in a handful of multi-millisecond
// stalls (a parked vCPU waiting for the hypervisor) for minutes at a time,
// with p50 and p90 unmoved; a throughput that counted them would measure the
// host. The tail is reported on its own, as host.stall_share.
func trimmedMean(s []float64, q float64) (mean, tail float64) {
	cut := quantile(s, q)
	var sum float64
	n := 0
	for _, x := range s {
		if x <= cut {
			sum += x
			n++
		} else {
			tail += x
		}
	}
	return sum / float64(n), tail
}

// iqrShare is the interquartile range of v as a share of its median — the
// spread figure the bounds in BENCHMARK.json are judged against.
func iqrShare(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	return (percentile(v, 0.75) - percentile(v, 0.25)) / m
}

// unattributed is the share of parent that the parts do not account for:
// the reconciliation every budget in this benchmark has to pass.
func unattributed(parent float64, parts ...float64) float64 {
	if parent <= 0 {
		return 0
	}
	var sum float64
	for _, p := range parts {
		sum += p
	}
	return 1 - sum/parent
}

// disturbed reports whether more than a quarter of the rounds sit more than
// 15% above the fastest one.
func disturbed(roundP50 []float64) bool {
	if len(roundP50) == 0 {
		return false
	}
	s := sorted(roundP50)
	slow := 0
	for _, x := range s {
		if x > 1.15*s[0] {
			slow++
		}
	}
	return 4*slow > len(s)
}
