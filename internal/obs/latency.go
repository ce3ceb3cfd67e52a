package obs

import "math"

// The repository's one latency summary is an integer-count log-bucketed
// histogram instead of a retained sample: 100 buckets per decade from
// 1 µs-scale to 10³-second-scale responses (≈2.3% relative resolution),
// fixed size regardless of request count — the property the
// million-request fleet soak's flat memory rests on.
const (
	latPerDecade = 100
	latDecades   = 9
	latBuckets   = latPerDecade * latDecades
	latMinMS     = 1e-3
)

// LatencyHist is a fixed-size log-bucketed latency histogram (ms). The
// zero value is empty and ready to use. It is not safe for concurrent
// use: callers hold their own lock.
type LatencyHist struct {
	counts [latBuckets]uint64
	total  uint64
}

// bucketOf maps a latency to its bucket, a pure function of the value.
func bucketOf(ms float64) int {
	if !(ms > latMinMS) { // NaN, zero and sub-minimum all clamp low
		return 0
	}
	f := math.Floor(math.Log10(ms/latMinMS) * latPerDecade)
	// Clamp in float space: int(+Inf) is implementation-defined.
	if f >= latBuckets {
		return latBuckets - 1
	}
	if f < 0 {
		return 0
	}
	return int(f)
}

// lowerEdge is bucket i's lower edge, the value every percentile read
// from it reports.
func lowerEdge(i int) float64 {
	return latMinMS * math.Pow(10, float64(i)/latPerDecade)
}

// Observe folds one latency sample in.
func (h *LatencyHist) Observe(ms float64) {
	h.counts[bucketOf(ms)]++
	h.total++
}

// Merge folds every sample of o in, as if each had been observed here.
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// Percentile returns the lower edge of the bucket holding the p-th
// percentile sample (0 when empty) — the bucket's deterministic
// representative value. The rank is nearest rank: sample ceil(p·n) in
// ascending order, clamped into [1, n], counted over buckets instead of
// sorted samples.
func (h *LatencyHist) Percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(max(1, min(math.Ceil(p*float64(h.total)), float64(h.total))))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return lowerEdge(i)
		}
	}
	return lowerEdge(latBuckets - 1) // unreachable: the counts sum to total
}
