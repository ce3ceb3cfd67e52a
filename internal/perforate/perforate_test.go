package perforate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pcnn/internal/tensor"
)

func TestFullMask(t *testing.T) {
	m := Full(4, 3)
	if m.Rate() != 0 {
		t.Fatalf("Rate = %v, want 0", m.Rate())
	}
	if m.SampledCount() != 12 {
		t.Fatalf("SampledCount = %d, want 12", m.SampledCount())
	}
}

func TestGridKeepCounts(t *testing.T) {
	m := Grid(8, 8, 4, 2)
	if got := m.SampledCount(); got != 8 {
		t.Fatalf("SampledCount = %d, want 8 (4×2)", got)
	}
	if r := m.Rate(); math.Abs(r-(1-8.0/64)) > 1e-12 {
		t.Fatalf("Rate = %v, want %v", r, 1-8.0/64)
	}
}

func TestGridClamps(t *testing.T) {
	m := Grid(5, 5, 0, 100)
	// keepW clamped to 1, keepH clamped to 5.
	if got := m.SampledCount(); got != 5 {
		t.Fatalf("SampledCount = %d, want 5", got)
	}
}

func TestGridPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Grid(0,3,…) did not panic")
		}
	}()
	Grid(0, 3, 1, 1)
}

// fromRate is the mask oracle for KeptFraction: the grid mask whose
// computed fraction is approximately 1−rate.
func fromRate(w, h int, rate float64) Mask {
	if rate <= 0 {
		return Full(w, h)
	}
	keepW, keepH := keepForRate(w, h, rate)
	return Grid(w, h, keepW, keepH)
}

func TestFromRateZero(t *testing.T) {
	if m := fromRate(6, 6, 0); m.Rate() != 0 {
		t.Fatalf("fromRate(…, 0) not full")
	}
	if m := fromRate(6, 6, -1); m.Rate() != 0 {
		t.Fatalf("fromRate(…, -1) not full")
	}
}

func TestFromRateApproximatesRate(t *testing.T) {
	for _, rate := range []float64{0.1, 0.3, 0.5, 0.75} {
		m := fromRate(32, 32, rate)
		got := m.Rate()
		if math.Abs(got-rate) > 0.12 {
			t.Errorf("fromRate(32,32,%v): achieved rate %v, want within 0.12", rate, got)
		}
	}
}

func TestFromRateNeverEmpty(t *testing.T) {
	m := fromRate(4, 4, 0.9999)
	if m.SampledCount() < 1 {
		t.Fatalf("mask has no computed positions")
	}
}

func TestInterpolateBlendsBetweenComputed(t *testing.T) {
	m := Grid(4, 1, 2, 1) // keeps x=1 and x=3
	data := make([]float32, 4)
	m.Interpolate(data, []float32{10, 20})
	// Positions outside the kept span clamp; positions between blend
	// linearly: x=2 sits halfway between x=1 (10) and x=3 (20).
	if data[1] != 10 || data[3] != 20 {
		t.Fatalf("computed positions = %v, %v, want 10, 20", data[1], data[3])
	}
	if data[0] != 10 {
		t.Fatalf("border position = %v, want clamp to 10", data[0])
	}
	if data[2] != 15 {
		t.Fatalf("midpoint = %v, want bilinear blend 15", data[2])
	}
	for _, v := range data {
		if v < 10 || v > 20 {
			t.Fatalf("interpolated value %v outside computed range [10,20]", v)
		}
	}
}

func TestInterpolateMultiChannel(t *testing.T) {
	m := Grid(3, 3, 1, 1)
	data := make([]float32, 2*9)
	m.Interpolate(data[:9], []float32{5})
	m.Interpolate(data[9:], []float32{7})
	for i := 0; i < 9; i++ {
		if data[i] != 5 {
			t.Fatalf("channel 0 pos %d = %v, want 5", i, data[i])
		}
		if data[9+i] != 7 {
			t.Fatalf("channel 1 pos %d = %v, want 7", i, data[9+i])
		}
	}
}

func TestInterpolateSizeMismatchPanics(t *testing.T) {
	for _, c := range []struct{ plane, kept int }{{5, 4}, {4, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Interpolate with a %d-plane and %d kept values did not panic", c.plane, c.kept)
				}
			}()
			m := Full(2, 2)
			m.Interpolate(make([]float32, c.plane), make([]float32, c.kept))
		}()
	}
}

// Property: the computed positions are the kept grid's cross product, rate
// is in [0,1), Interpolate puts every kept value at its position, and
// interpolation is idempotent: refilling from the filled plane's computed
// positions changes nothing.
func TestMaskInvariantsProperty(t *testing.T) {
	f := func(w8, h8, kw8, kh8 uint8) bool {
		w, h := int(w8%16)+1, int(h8%16)+1
		m := Grid(w, h, int(kw8%20), int(kh8%20))
		if m.Rate() < 0 || m.Rate() >= 1.0000001 {
			return false
		}
		xs, ys := m.SampledGrid()
		var at []int // computed positions, row-major
		for _, y := range ys {
			for _, x := range xs {
				at = append(at, y*w+x)
			}
		}
		computed := 0
		for _, c := range m.Computed {
			if c {
				computed++
			}
		}
		if computed != len(at) || m.SampledCount() != len(at) {
			return false
		}
		kept := make([]float32, len(at))
		for j := range kept {
			kept[j] = float32(j + 1)
		}
		data := make([]float32, w*h)
		m.Interpolate(data, kept)
		for j, i := range at {
			if !m.Computed[i] || data[i] != kept[j] {
				return false
			}
		}
		snapshot := append([]float32(nil), data...)
		m.Interpolate(data, kept)
		for i := range data {
			if data[i] != snapshot[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: increasing the requested rate never increases the computed count.
func TestFromRateMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		ra := math.Mod(math.Abs(a), 1)
		rb := math.Mod(math.Abs(b), 1)
		if ra > rb {
			ra, rb = rb, ra
		}
		ma := fromRate(24, 24, ra)
		mb := fromRate(24, 24, rb)
		return mb.SampledCount() <= ma.SampledCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestKeptFraction: the mask-free kept fraction is 1 − fromRate(w, h,
// 1−frac).Rate() bit for bit — over every small map, and over the real conv
// output sizes at the synthetic ladder's 0.8^i targets — and is the
// quantized fraction it claims to be: 1 at frac 1, within one row and one
// column of rounding of the request, monotone in frac.
func TestKeptFraction(t *testing.T) {
	check := func(w, h int) {
		t.Helper()
		prev := 1.0
		for i := 0; i <= 12; i++ {
			frac := math.Pow(0.8, float64(i))
			m := fromRate(w, h, 1-frac)
			got, want := KeptFraction(w, h, frac), 1-m.Rate()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("KeptFraction(%d,%d,%v) = %v, mask says %v", w, h, frac, got, want)
			}
			if got > prev || (i == 0 && got != 1) || math.Abs(got-frac) > 1/float64(w)+1/float64(h) {
				t.Fatalf("KeptFraction(%d,%d,%v) = %v after %v", w, h, frac, got, prev)
			}
			prev = got
		}
	}
	for w := 1; w <= 64; w++ {
		for h := 1; h <= 64; h++ {
			check(w, h)
		}
	}
	sizes := []int{55, 27, 13, 224, 112, 56, 28, 14, 7}
	for _, w := range sizes {
		for _, h := range sizes {
			check(w, h)
		}
	}
}

// TestFillPlanMatchesDirectBilinear pins the row-wise fill — kept rows
// blended across straight from the kept values, missing rows blended from
// two finished kept rows — to the per-position formula it reorganizes, as
// the fill it replaced computed it: scatter the kept values, then for
// every non-computed position bracket each axis and blend the four
// corners. Same float expressions, so on finite values the planes agree
// by Float32bits, with ±0, denormals and values near the float32 range
// planted among the kept ones — on every map up to 30×30, at keep grids
// sampled to cover dense, sparse and single-row/column masks, on the
// vector and the portable row blend. Only finite values, and a zero's
// sign is exempt: the corner formula also adds weight-0 terms — at a
// kept column the next kept column, on a kept row the next kept row — so
// an Inf or NaN there would leak into the position, and a −0 there turns
// into +0; the fill copies a kept value and a kept row's blend exactly.
func TestFillPlanMatchesDirectBilinear(t *testing.T) {
	special := []float32{float32(math.Copysign(0, -1)), 0, 1e-45, -1e-45, 3e38, -3e38}
	defer tensor.SetSIMD(tensor.SetSIMD(true))
	for _, simd := range []bool{true, false} {
		tensor.SetSIMD(simd)
		rng := rand.New(rand.NewSource(11))
		for w := 1; w <= 30; w++ {
			for h := 1; h <= 30; h++ {
				for _, keep := range [][2]int{{1, 1}, {w, 1}, {1, h}, {w - 1, h - 1}, {(w + 1) / 2, (2*h + 2) / 3}, {1 + rng.Intn(w), 1 + rng.Intn(h)}} {
					m := Grid(w, h, keep[0], keep[1])
					kept := make([]float32, m.SampledCount())
					for i := range kept {
						kept[i] = float32(math.Sin(float64(i)*0.37)) * 3
						if rng.Intn(6) == 0 {
							kept[i] = special[rng.Intn(len(special))]
						}
					}
					want := make([]float32, w*h)
					j := 0
					for _, y := range m.ys {
						for _, x := range m.xs {
							want[y*w+x] = kept[j]
							j++
						}
					}
					xlo, xhi, fxs := axisBlend(w, m.xs)
					ylo, yhi, fys := axisBlend(h, m.ys)
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							if m.Computed[y*w+x] {
								continue
							}
							fx, x0, x1 := fxs[x], m.xs[xlo[x]], m.xs[xhi[x]]
							fy, y0, y1 := fys[y], m.ys[ylo[y]], m.ys[yhi[y]]
							top := (1-fx)*want[y0*w+x0] + fx*want[y0*w+x1]
							bot := (1-fx)*want[y1*w+x0] + fx*want[y1*w+x1]
							want[y*w+x] = (1-fy)*top + fy*bot
						}
					}
					got := make([]float32, w*h)
					m.Interpolate(got, kept)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] == 0 && want[i] == 0) {
							t.Fatalf("simd=%v grid %dx%d keep %v: position %d = %g (%#x), direct formula %g (%#x)",
								simd, w, h, keep, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestInterpolateZeroAlloc: a perforated conv fills every plane of every
// sample per forward on the serving path, so the fill must allocate
// nothing.
func TestInterpolateZeroAlloc(t *testing.T) {
	m := Grid(16, 16, 7, 7)
	plane, kept := make([]float32, 16*16), make([]float32, m.SampledCount())
	if allocs := testing.AllocsPerRun(20, func() { m.Interpolate(plane, kept) }); allocs != 0 {
		t.Fatalf("Interpolate allocates %.1f objects/op, want 0", allocs)
	}
}
