package obs

import "math"

// Percentile is the repository's one percentile convention, nearest rank:
// the p-th percentile of n ascending samples is the sample at 0-based
// index ceil(p·n)−1, clamped into the slice (0 when it is empty). sorted
// must be in ascending order.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
