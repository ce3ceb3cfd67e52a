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
	// fill is the bilinear plan, one blend per non-computed position. It
	// is only worth its memory on a mask that interpolates repeatedly
	// (see Prepared); Interpolate derives it per call otherwise.
	fill []blend
}

// blend fills one non-computed position from the four computed corners
// that bracket it.
type blend struct {
	at                 int32 // the position filled
	i00, i01, i10, i11 int32 // corners: (row lo|hi) × (column lo|hi)
	fx, fy             float32
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

// Prepared returns the mask with its bilinear fill plan built, so that
// Interpolate — called per sample per forward on a serving path — does no
// set-up of its own. A prepared mask is immutable and safe to share.
func (m Mask) Prepared() Mask {
	if m.fill == nil {
		m.fill = m.blends()
	}
	return m
}

// blends derives the fill plan of a product-grid mask (nil otherwise).
func (m Mask) blends() []blend {
	if len(m.xs) == 0 || len(m.ys) == 0 {
		return nil
	}
	x0, x1, wx := axisBlend(m.W, m.xs)
	y0, y1, wy := axisBlend(m.H, m.ys)
	fill := make([]blend, 0, m.W*m.H-len(m.sampled))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if i := y*m.W + x; !m.Computed[i] {
				fill = append(fill, blend{
					at:  int32(i),
					i00: int32(y0[y]*m.W + x0[x]), i01: int32(y0[y]*m.W + x1[x]),
					i10: int32(y1[y]*m.W + x0[x]), i11: int32(y1[y]*m.W + x1[x]),
					fx: wx[x], fy: wy[y],
				})
			}
		}
	}
	return fill
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

// axisBlend computes, for every coordinate along an axis, the two kept
// coordinates that bracket it and the blend weight toward the upper one
// (clamped at the borders).
func axisBlend(n int, kept []int) (lo, hi []int, w []float32) {
	lo = make([]int, n)
	hi = make([]int, n)
	w = make([]float32, n)
	j := 0
	for i := 0; i < n; i++ {
		for j+1 < len(kept) && kept[j+1] <= i {
			j++
		}
		switch {
		case i <= kept[0]:
			lo[i], hi[i], w[i] = kept[0], kept[0], 0
		case i >= kept[len(kept)-1]:
			last := kept[len(kept)-1]
			lo[i], hi[i], w[i] = last, last, 0
		default:
			lo[i], hi[i] = kept[j], kept[j+1]
			w[i] = float32(i-kept[j]) / float32(kept[j+1]-kept[j])
		}
	}
	return lo, hi, w
}

// interpolateBilinear blends every non-computed position from the four
// computed corners that bracket it.
func (m Mask) interpolateBilinear(data []float32, channels int) {
	fill := m.fill
	if fill == nil {
		fill = m.blends()
	}
	plane := m.W * m.H
	for c := 0; c < channels; c++ {
		p := data[c*plane : (c+1)*plane]
		for _, b := range fill {
			top := (1-b.fx)*p[b.i00] + b.fx*p[b.i01]
			bot := (1-b.fx)*p[b.i10] + b.fx*p[b.i11]
			p[b.at] = (1-b.fy)*top + b.fy*bot
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
