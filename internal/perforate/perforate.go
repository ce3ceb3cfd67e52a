// Package perforate implements the perforation–interpolation approximation
// of Fig 11 in the paper: instead of computing a convolutional layer's
// output at every spatial position, only a reduced Wo′×Ho′ grid of
// positions is computed and the remaining values are interpolated from
// their nearest computed neighbours. This leaves the network architecture
// (and hence the trained weights) unchanged while cutting the GEMM's N
// dimension, which is what makes it usable for run-time accuracy tuning.
package perforate

import (
	"fmt"
	"math"
)

// Mask describes which output positions of a W×H feature map are computed
// and, for every position, which computed position supplies its value.
type Mask struct {
	W, H int
	// Computed marks positions (row-major, y*W+x) that are truly computed.
	Computed []bool
	// Source[i] is the row-major index of the computed position whose value
	// position i takes under nearest-neighbour interpolation. Source[i] == i
	// for computed positions.
	Source []int
	// sampled caches the computed positions in row-major order.
	sampled []int
	// xs/ys hold the kept columns/rows of a product-grid mask; when
	// present, Interpolate blends bilinearly between the four surrounding
	// computed positions instead of copying the nearest one, which
	// preserves far more accuracy on smooth feature maps.
	xs, ys []int
	// horiz and vert are the bilinear plan of a product-grid mask (see
	// interpolateBilinear). It is only worth its memory on a mask that
	// interpolates repeatedly (see Prepared); Interpolate derives it per
	// call otherwise.
	horiz, vert []blend
}

// blend is one step of the bilinear plan: dst[at] = (1−f)·src[lo] + f·src[hi].
type blend struct {
	at, lo, hi int32
	f          float32
}

// Full returns a mask that computes every position (perforation rate 0).
func Full(w, h int) Mask {
	m := Mask{W: w, H: h, Computed: make([]bool, w*h), Source: make([]int, w*h)}
	for i := range m.Computed {
		m.Computed[i] = true
		m.Source[i] = i
		m.sampled = append(m.sampled, i)
	}
	return m
}

// Grid returns a mask that computes a near-uniform keepW×keepH sub-grid of
// the W×H map — the paper's Wo′×Ho′ — and sources every other position
// from its nearest computed neighbour. keepW and keepH are clamped to
// [1, W] and [1, H].
func Grid(w, h, keepW, keepH int) Mask {
	xs, ys := gridAxes(w, h, keepW, keepH)

	m := Mask{W: w, H: h, Computed: make([]bool, w*h), Source: make([]int, w*h), xs: xs, ys: ys}
	for _, y := range ys {
		for _, x := range xs {
			i := y*w + x
			m.Computed[i] = true
			m.sampled = append(m.sampled, i)
		}
	}
	// Nearest computed row/column for every position.
	nearX := nearest(w, xs)
	nearY := nearest(h, ys)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			m.Source[i] = nearY[y]*w + nearX[x]
		}
	}
	return m
}

// Prepared returns the mask with its bilinear plan built, so that
// Interpolate — called per sample per forward on a serving path — does no
// set-up of its own. A prepared mask is immutable and safe to share.
func (m Mask) Prepared() Mask {
	if m.horiz != nil || len(m.xs) == 0 || len(m.ys) == 0 {
		return m
	}
	cols, rows := axisBlend(m.W, m.xs), axisBlend(m.H, m.ys)
	at := func(row, x int) int32 { return int32(row*m.W + x) }
	for j, y := range m.ys { // kept row y, blended across, lands in scratch row j
		for x, c := range cols {
			m.horiz = append(m.horiz, blend{at(j, x), at(y, m.xs[c.lo]), at(y, m.xs[c.hi]), c.f})
		}
	}
	for y, r := range rows {
		for x, c := range cols {
			if !(r.kept && c.kept) { // computed positions stay
				m.vert = append(m.vert, blend{at(y, x), at(r.lo, x), at(r.hi, x), r.f})
			}
		}
	}
	return m
}

// SampledGrid returns the kept columns and rows of a product-grid mask
// (ascending); the computed positions are their cross product in
// row-major order. Both are nil for Full.
func (m Mask) SampledGrid() (xs, ys []int) { return m.xs, m.ys }

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

// nearest maps every coordinate in [0,n) to its nearest kept coordinate.
func nearest(n int, kept []int) []int {
	out := make([]int, n)
	j := 0
	for i := 0; i < n; i++ {
		for j+1 < len(kept) && abs(kept[j+1]-i) <= abs(kept[j]-i) {
			j++
		}
		out[i] = kept[j]
	}
	return out
}

// SampledCount returns Wo′·Ho′, the number of computed positions.
func (m Mask) SampledCount() int { return len(m.sampled) }

// Rate returns the perforation rate 1 − Wo′Ho′/(WoHo).
func (m Mask) Rate() float64 { return rateOf(len(m.sampled), m.W*m.H) }

// rateOf is the perforation rate of computing `computed` of `total`
// positions.
func rateOf(computed, total int) float64 {
	if total == 0 {
		return 0
	}
	return 1 - float64(computed)/float64(total)
}

// IsFull reports whether every position is computed.
func (m Mask) IsFull() bool { return len(m.sampled) == m.W*m.H }

// Interpolate fills the non-computed positions of each channel of data in
// place. data holds `channels` channel planes of W·H values each
// (channel-major, the layout conv layers produce). Product-grid masks
// interpolate bilinearly between the surrounding computed positions;
// other masks copy the nearest computed value.
func (m Mask) Interpolate(data []float32, channels int) {
	plane := m.W * m.H
	if len(data) != channels*plane {
		panic(fmt.Sprintf("perforate: data length %d, want %d channels × %d", len(data), channels, plane))
	}
	if m.IsFull() {
		return
	}
	if len(m.xs) > 0 && len(m.ys) > 0 {
		m.interpolateBilinear(data, channels)
		return
	}
	for c := 0; c < channels; c++ {
		p := data[c*plane : (c+1)*plane]
		for i, src := range m.Source {
			if !m.Computed[i] {
				p[i] = p[src]
			}
		}
	}
}

// bracket places one coordinate between two kept coordinates, named by
// rank: kept[lo] ≤ i ≤ kept[hi], with the blend weight toward hi (clamped
// at the borders: lo = hi, f = 0) and whether i is itself kept.
type bracket struct {
	lo, hi int
	f      float32
	kept   bool
}

// axisBlend brackets every coordinate along an axis.
func axisBlend(n int, kept []int) []bracket {
	out := make([]bracket, n)
	j := 0
	for i := range out {
		for j+1 < len(kept) && kept[j+1] <= i {
			j++
		}
		out[i] = bracket{lo: j, hi: j, kept: i == kept[j]}
		if i > kept[0] && i < kept[len(kept)-1] {
			out[i].hi = j + 1
			out[i].f = float32(i-kept[j]) / float32(kept[j+1]-kept[j])
		}
	}
	return out
}

// interpolateBilinear blends every non-computed position from the four
// computed corners that bracket it: p = (1−fy)·top + fy·bot with top and
// bot the (1−fx)·a + fx·b blends along the two bracketing kept rows. The
// blend is separable, so horiz blends each kept row once, for every x,
// into scratch, and vert blends two scratch rows into each missing
// position — the same float expressions, position for position, as
// blending the four corners directly.
func (m Mask) interpolateBilinear(data []float32, channels int) {
	m = m.Prepared()
	// The stack holds every scaled-network plane and full-size AlexNet
	// from CONV2 up, so the serving path allocates nothing.
	var stack [1024]float32
	scratch := stack[:]
	if len(m.horiz) > len(scratch) {
		scratch = make([]float32, len(m.horiz))
	}
	plane := m.W * m.H
	for c := 0; c < channels; c++ {
		p := data[c*plane : (c+1)*plane]
		for _, b := range m.horiz {
			scratch[b.at] = (1-b.f)*p[b.lo] + b.f*p[b.hi]
		}
		for _, b := range m.vert {
			p[b.at] = (1-b.f)*scratch[b.lo] + b.f*scratch[b.hi]
		}
	}
}

// Scatter writes sampled values (one row of a GEMM output computed only at
// sampled positions, length SampledCount) into a full W·H plane, leaving
// other positions untouched.
func (m Mask) Scatter(sampledVals, plane []float32) {
	if len(sampledVals) != len(m.sampled) || len(plane) != m.W*m.H {
		panic(fmt.Sprintf("perforate: Scatter size mismatch: %d sampled vals for %d positions, plane %d",
			len(sampledVals), len(m.sampled), len(plane)))
	}
	for j, i := range m.sampled {
		plane[i] = sampledVals[j]
	}
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

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
