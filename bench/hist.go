package main

import "math/bits"

// histogram is a fixed-size log-bucket latency histogram over nanosecond
// samples: each power of two is split into 1<<histSubBits linear
// sub-buckets (≤0.4 % relative width). It is allocated before a window and
// never grows, so recording a sample allocates nothing and rss_mb
// measures the program, not the harness.
type histogram struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	// Samples below histSub ns index their exact value; above, one octave
	// per remaining bit of a 63-bit duration.
	histBuckets = (64 - histSubBits) * histSub
)

// bucketOf maps a sample to its bucket index.
func bucketOf(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 - histSubBits // ≥ 0
	return (exp+1)<<histSubBits | int(uint64(ns)>>uint(exp))&(histSub-1)
}

// bucketLow returns the smallest sample that lands in bucket i;
// bucketLow(i+1) is its exclusive upper edge.
func bucketLow(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	exp := i>>histSubBits - 1
	return float64(uint64(histSub|i&(histSub-1)) << uint(exp))
}

func (h *histogram) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

// merge adds o's samples; exact, since buckets are integer counts.
func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (nearest rank, linearly
// interpolated inside the bucket so two runs rarely read identically), or
// 0 for an empty histogram.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketLow(i), bucketLow(i+1)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return bucketLow(histBuckets - 1)
}

// ms is quantile in milliseconds.
func (h *histogram) ms(q float64) float64 { return h.quantile(q) / 1e6 }
