// Package perforate implements the perforation–interpolation approximation
// of Fig 11 in the paper: instead of computing a convolutional layer's
// output at every spatial position, only a reduced Wo′×Ho′ grid of
// positions is computed and the remaining values are interpolated
// bilinearly from the computed positions around them. This leaves the
// network architecture (and hence the trained weights) unchanged while
// cutting the GEMM's N dimension, which is what makes it usable for
// run-time accuracy tuning.
package perforate

import (
	"fmt"
	"math"

	"pcnn/internal/tensor"
)

// Mask describes which output positions of a W×H feature map are computed
// — a product grid of kept columns and rows — and how Interpolate fills
// the others from them. A mask is immutable and safe to share.
type Mask struct {
	W, H int
	// Computed marks positions (row-major, y*W+x) that are truly computed.
	Computed []bool
	// xs/ys hold the kept columns/rows, ascending. across blends a row of
	// kept values out to W; down blends the ny such rows out to H.
	xs, ys       []int
	across, down tensor.Lerp
}

// Full returns a mask that computes every position (perforation rate 0).
func Full(w, h int) Mask { return Grid(w, h, w, h) }

// Grid returns a mask that computes a near-uniform keepW×keepH sub-grid of
// the W×H map — the paper's Wo′×Ho′ — and interpolates every other
// position bilinearly from the computed positions around it. keepW and
// keepH are clamped to [1, W] and [1, H].
func Grid(w, h, keepW, keepH int) Mask {
	xs, ys := gridAxes(w, h, keepW, keepH)
	m := Mask{W: w, H: h, Computed: make([]bool, w*h), xs: xs, ys: ys,
		across: tensor.NewLerp(axisBlend(w, xs)), down: tensor.NewLerp(axisBlend(h, ys))}
	for _, y := range ys {
		for _, x := range xs {
			m.Computed[y*w+x] = true
		}
	}
	return m
}

// SampledGrid returns the kept columns and rows of the mask (ascending);
// the computed positions are their cross product in row-major order.
func (m *Mask) SampledGrid() (xs, ys []int) { return m.xs, m.ys }

// KeptFraction returns the fraction of a w×h map the grid mask for
// approximately frac of its positions really computes — frac quantized to
// whole kept rows and columns, 1 − Rate() of that mask to the bit — from
// the kept row and column counts alone, without building the mask. The online server synthesizes degradation paths from it when no
// measured tuning table exists.
func KeptFraction(w, h int, frac float64) float64 {
	if frac >= 1 {
		return 1
	}
	keepW, keepH := keepForRate(w, h, 1-frac)
	xs, ys := gridAxes(w, h, keepW, keepH)
	return 1 - rateOf(len(xs)*len(ys), w*h)
}

// keepForRate returns the kept columns and rows of the grid mask that
// skips approximately rate of a w×h map, spread evenly over both axes.
// rate is clamped so at least one position per axis stays computed.
func keepForRate(w, h int, rate float64) (keepW, keepH int) {
	keep := math.Sqrt(1 - clampF(rate, 0, 0.999))
	return int(math.Round(keep * float64(w))), int(math.Round(keep * float64(h)))
}

// gridAxes returns the kept columns and rows of Grid(w, h, keepW, keepH).
func gridAxes(w, h, keepW, keepH int) (xs, ys []int) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("perforate: invalid map size %dx%d", w, h))
	}
	return spaced(w, clamp(keepW, 1, w)), spaced(h, clamp(keepH, 1, h))
}

// spaced returns k indices evenly spread over [0, n).
func spaced(n, k int) []int {
	idx := make([]int, k)
	for i := 0; i < k; i++ {
		// Centered stratified placement: position i sits in the middle of
		// its stratum, so interpolation distances stay balanced.
		idx[i] = int((float64(i) + 0.5) * float64(n) / float64(k))
		if idx[i] >= n {
			idx[i] = n - 1
		}
	}
	// Deduplicate (possible when k is close to n).
	out := idx[:1]
	for _, v := range idx[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// SampledCount returns Wo′·Ho′, the number of computed positions.
func (m *Mask) SampledCount() int { return len(m.xs) * len(m.ys) }

// Rate returns the perforation rate 1 − Wo′Ho′/(WoHo).
func (m *Mask) Rate() float64 { return rateOf(m.SampledCount(), m.W*m.H) }

// rateOf is the perforation rate of computing `computed` of `total`
// positions.
func rateOf(computed, total int) float64 {
	if total == 0 {
		return 0
	}
	return 1 - float64(computed)/float64(total)
}

// Interpolate writes one channel's W·H plane from its computed values:
// kept holds the SampledCount of them in row-major order over the kept
// grid — one row of a perforated GEMM's result. Computed positions take
// their values; every other position blends bilinearly between the four
// computed positions around it (clamped at the borders), which preserves
// far more accuracy on smooth feature maps than copying the nearest one.
//
// The blend is separable and runs row-wise, in place: each kept row
// blends its own values across into the plane's top rows (kept row j in
// row j ≤ ys[j]), then every row of the plane, bottom first, is a copy of
// a finished kept row or a blend of the two around it — never reading a
// row it has already rewritten, since row y needs kept rows j ≤ y only.
// On finite values that is, position for position, the same float
// expression as blending the four corners directly: p = (1−fy)·top +
// fy·bot with top and bot the (1−fx)·a + fx·b blends along the two
// bracketing kept rows.
func (m *Mask) Interpolate(plane, kept []float32) {
	if len(plane) != m.W*m.H || len(kept) != m.SampledCount() {
		panic(fmt.Sprintf("perforate: Interpolate size mismatch: %d kept values for %d positions, plane %d, want %d",
			len(kept), m.SampledCount(), len(plane), m.W*m.H))
	}
	m.across.Across(plane[:len(m.ys)*m.W], kept, len(m.xs))
	m.down.Down(plane, plane, m.W)
}

// axisBlend brackets every coordinate along an axis between the two kept
// coordinates around it, by rank — kept[lo[i]] ≤ i ≤ kept[hi[i]] — with
// the blend weight f[i] toward hi: 0 for a kept coordinate, and 0 with
// lo = hi outside the kept span (clamped at the borders).
func axisBlend(n int, kept []int) (lo, hi []int, f []float32) {
	lo, hi, f = make([]int, n), make([]int, n), make([]float32, n)
	j := 0
	for i := range lo {
		for j+1 < len(kept) && kept[j+1] <= i {
			j++
		}
		lo[i], hi[i] = j, j
		if i > kept[0] && i < kept[len(kept)-1] {
			hi[i] = j + 1
			f[i] = float32(i-kept[j]) / float32(kept[j+1]-kept[j])
		}
	}
	return lo, hi, f
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
