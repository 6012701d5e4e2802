package main

import (
	"math"
	"sort"
)

// summary describes one sample of measurements: its size, mean and the
// quantiles the report uses.
type summary struct {
	N             int
	Mean          float64
	P50, P90, P99 float64
}

// summarize sorts xs in place and summarizes it; an empty sample
// summarizes to zeros.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	return summary{
		N:    len(xs),
		Mean: sum(xs) / float64(len(xs)),
		P50:  quantile(xs, 0.50),
		P90:  quantile(xs, 0.90),
		P99:  quantile(xs, 0.99),
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (the same rule as numpy's default); 0 for an
// empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// beyond counts the samples strictly above the q-quantile: the guide's
// rule is to report a percentile only when at least ten samples lie
// beyond it.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latHist is a log-linear histogram of latencies in milliseconds. It
// keeps a fixed set of counters however many samples it holds, so
// recording a read allocates nothing and the benchmark's own heap stays
// the same size through a run. A buffer of every sample would grow by
// tens of megabytes over a browse run, and the garbage collector, which
// paces itself by the live heap, would run half as often at the end of
// the run as at its start, speeding the service up as the run went on.
//
// Each power of two from 2^histMinExp ms up is cut into histSub
// buckets, so a bucket spans at most 1/histSub of the values in it.
type latHist struct {
	counts []uint32
	n      int
	sum    float64 // ms
}

const (
	histMinExp  = -12 // the lowest bucket starts at 2^-12 ms, about 0.24 µs
	histOctaves = 32  // the highest ends at 2^20 ms, about 17 minutes
	histSub     = 256
)

func newLatHist() *latHist { return &latHist{counts: make([]uint32, histOctaves*histSub)} }

func (h *latHist) add(ms float64) {
	h.n++
	h.sum += ms
	h.counts[histIndex(ms)]++
}

// histIndex returns the bucket holding ms; values outside the range go
// to the first or the last bucket.
func histIndex(ms float64) int {
	if ms <= 0 {
		return 0
	}
	frac, exp := math.Frexp(ms) // ms = frac·2^exp, frac in [0.5, 1)
	o := exp - 1 - histMinExp
	switch {
	case o < 0:
		return 0
	case o >= histOctaves:
		return histOctaves*histSub - 1
	}
	return o*histSub + int((2*frac-1)*histSub)
}

// histLower returns the lower edge of bucket i, which is also the upper
// edge of bucket i-1.
func histLower(i int) float64 {
	return math.Ldexp(1+float64(i%histSub)/histSub, i/histSub+histMinExp)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile by the rank rule of quantile on a
// sorted sample, rank q·(n-1), with the samples of a bucket spread
// evenly across it; 0 for an empty histogram.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	below := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < below+float64(c) {
			lo, hi := histLower(i), histLower(i+1)
			return lo + (hi-lo)*(rank-below+0.5)/float64(c)
		}
		below += float64(c)
	}
	return histLower(len(h.counts))
}

// summary is summarize for a histogram.
func (h *latHist) summary() summary {
	if h.n == 0 {
		return summary{}
	}
	return summary{N: h.n, Mean: h.sum / float64(h.n),
		P50: h.quantile(0.50), P90: h.quantile(0.90), P99: h.quantile(0.99)}
}
