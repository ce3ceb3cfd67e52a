package fleet

import "math"

// The soak's latency distribution is kept as an integer-count
// log-bucketed histogram instead of a retained sample: ~100 buckets per
// decade from 1 µs-scale to 10³-second-scale responses (≈2.3% relative
// resolution), fixed size regardless of request count — the property the
// million-request soak's flat memory rests on.
const (
	latHistPerDecade = 100
	latHistDecades   = 9
	latHistBuckets   = latHistPerDecade * latHistDecades
	latHistMinMS     = 1e-3
)

// latHist is a fixed-size log-bucketed latency histogram.
type latHist struct {
	counts [latHistBuckets]uint64
	total  uint64
}

// bucketOf maps a latency to its bucket, a pure function of the value.
func bucketOf(ms float64) int {
	if !(ms > latHistMinMS) { // NaN, zero and sub-minimum all clamp low
		return 0
	}
	f := math.Floor(math.Log10(ms/latHistMinMS) * latHistPerDecade)
	// Clamp in float space: int(+Inf) is implementation-defined.
	if f >= latHistBuckets {
		return latHistBuckets - 1
	}
	if f < 0 {
		return 0
	}
	return int(f)
}

// observe folds one latency sample in.
func (h *latHist) observe(ms float64) {
	h.counts[bucketOf(ms)]++
	h.total++
}

// percentile returns the lower edge of the bucket holding the p-th
// percentile sample (0 when empty) — the bucket's deterministic
// representative value. The rank is obs.Percentile's nearest rank,
// sample ceil(p·n) in ascending order, counted over buckets instead of
// sorted samples.
func (h *latHist) percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return latHistMinMS * math.Pow(10, float64(i)/latHistPerDecade)
		}
	}
	return latHistMinMS * math.Pow(10, float64(latHistBuckets-1)/latHistPerDecade)
}

// percentiles returns the 50th/95th/99th latency percentiles.
func (h *latHist) percentiles() (p50, p95, p99 float64) {
	return h.percentile(0.50), h.percentile(0.95), h.percentile(0.99)
}

// modelAgg is one model's slice of a soak aggregate.
type modelAgg struct {
	requests int
	served   int
	missed   int
	hist     latHist
}

// soakAgg accumulates one row's resolved requests: integer counters and
// fixed-size histograms, so its size never grows with the trace.
type soakAgg struct {
	served   int
	failed   int
	missed   int
	hist     latHist
	perModel []modelAgg
}

func newSoakAgg(nModels int) *soakAgg {
	return &soakAgg{perModel: make([]modelAgg, nModels)}
}

// observeServed folds one successfully served request in.
func (a *soakAgg) observeServed(model int, responseMS float64, deadlineMet bool) {
	a.served++
	a.hist.observe(responseMS)
	m := &a.perModel[model]
	m.requests++
	m.served++
	m.hist.observe(responseMS)
	if !deadlineMet {
		a.missed++
		m.missed++
	}
}

// observeFailed folds one request whose every leg failed.
func (a *soakAgg) observeFailed(model int) {
	a.failed++
	a.perModel[model].requests++
}
