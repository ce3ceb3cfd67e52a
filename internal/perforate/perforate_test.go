package perforate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFullMask(t *testing.T) {
	m := Full(4, 3)
	if !m.IsFull() {
		t.Fatalf("Full mask not full")
	}
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

func TestSourceSelfForComputed(t *testing.T) {
	m := Grid(7, 5, 3, 2)
	for i, c := range m.Computed {
		if c && m.Source[i] != i {
			t.Fatalf("computed position %d has Source %d", i, m.Source[i])
		}
		if !c && !m.Computed[m.Source[i]] {
			t.Fatalf("position %d sources from non-computed %d", i, m.Source[i])
		}
	}
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
	if m := fromRate(6, 6, 0); !m.IsFull() {
		t.Fatalf("fromRate(…, 0) not full")
	}
	if m := fromRate(6, 6, -1); !m.IsFull() {
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
	data[m.sampled[0]] = 10
	data[m.sampled[1]] = 20
	m.Interpolate(data, 1)
	// Positions outside the kept span clamp; positions between blend
	// linearly: x=2 sits halfway between x=1 (10) and x=3 (20).
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
	center := m.sampled[0]
	data := make([]float32, 2*9)
	data[center] = 5
	data[9+center] = 7
	m.Interpolate(data, 2)
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
	defer func() {
		if recover() == nil {
			t.Fatalf("Interpolate with wrong size did not panic")
		}
	}()
	Full(2, 2).Interpolate(make([]float32, 5), 1)
}

func TestScatter(t *testing.T) {
	m := Grid(4, 4, 2, 2)
	vals := []float32{1, 2, 3, 4}
	plane := make([]float32, 16)
	m.Scatter(vals, plane)
	for j, idx := range m.sampled {
		if plane[idx] != vals[j] {
			t.Fatalf("plane[%d] = %v, want %v", idx, plane[idx], vals[j])
		}
	}
}

func TestScatterSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Scatter with wrong sizes did not panic")
		}
	}()
	Grid(4, 4, 2, 2).Scatter(make([]float32, 3), make([]float32, 16))
}

// Property: every Source points at a computed index; rate is in [0,1);
// interpolation is idempotent.
func TestMaskInvariantsProperty(t *testing.T) {
	f := func(w8, h8, kw8, kh8 uint8) bool {
		w, h := int(w8%16)+1, int(h8%16)+1
		m := Grid(w, h, int(kw8%20), int(kh8%20))
		if m.Rate() < 0 || m.Rate() >= 1.0000001 {
			return false
		}
		for i, src := range m.Source {
			if src < 0 || src >= w*h || !m.Computed[src] {
				return false
			}
			if m.Computed[i] && src != i {
				return false
			}
		}
		// Idempotence of interpolation.
		data := make([]float32, w*h)
		for j, idx := range m.sampled {
			data[idx] = float32(j + 1)
		}
		m.Interpolate(data, 1)
		snapshot := append([]float32(nil), data...)
		m.Interpolate(data, 1)
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
			got, want := KeptFraction(w, h, frac), 1-fromRate(w, h, 1-frac).Rate()
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

// TestFillPlanMatchesDirectBilinear pins the separable interpolation —
// kept rows blended horizontally into scratch, then a vertical blend into
// every non-computed position — to the per-position formula it
// reorganizes: bracket each axis, blend the four corners. Same float
// expressions, so the planes must agree by Float32bits, prepared or not,
// with −0, ±Inf and NaN planted among the computed values — on every map
// up to 30×30, at keep grids sampled to cover dense, sparse and
// single-row/column masks. Only a NaN's sign and payload are exempt: x86
// propagates the first operand's NaN and the compiler may commute an add,
// so which of two NaNs survives is not a property of the expression.
func TestFillPlanMatchesDirectBilinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 0}
	for w := 1; w <= 30; w++ {
		for h := 1; h <= 30; h++ {
			for _, keep := range [][2]int{{1, 1}, {w, 1}, {1, h}, {w - 1, h - 1}, {(w + 1) / 2, (2*h + 2) / 3}, {1 + rng.Intn(w), 1 + rng.Intn(h)}} {
				m := Grid(w, h, keep[0], keep[1])
				const channels = 3
				data := make([]float32, channels*w*h)
				for i := range data {
					data[i] = float32(math.Sin(float64(i)*0.37)) * 3
					if rng.Intn(6) == 0 {
						data[i] = special[rng.Intn(len(special))]
					}
				}
				want := append([]float32(nil), data...)
				bx, by := axisBlend(w, m.xs), axisBlend(h, m.ys)
				for c := 0; c < channels; c++ {
					p := want[c*w*h:][:w*h]
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							if m.Computed[y*w+x] {
								continue
							}
							fx, x0, x1 := bx[x].f, m.xs[bx[x].lo], m.xs[bx[x].hi]
							fy, y0, y1 := by[y].f, m.ys[by[y].lo], m.ys[by[y].hi]
							top := (1-fx)*p[y0*w+x0] + fx*p[y0*w+x1]
							bot := (1-fx)*p[y1*w+x0] + fx*p[y1*w+x1]
							p[y*w+x] = (1-fy)*top + fy*bot
						}
					}
				}
				for name, mask := range map[string]Mask{"derived": m, "prepared": m.Prepared()} {
					got := append([]float32(nil), data...)
					mask.Interpolate(got, channels)
					for i := range got {
						bothNaN := got[i] != got[i] && want[i] != want[i]
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !bothNaN {
							t.Fatalf("grid %dx%d keep %v %s plan: position %d = %g (%#x), direct formula %g (%#x)",
								w, h, keep, name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestInterpolatePreparedZeroAlloc: a prepared mask interpolates on the
// serving path per sample per forward, so it must allocate nothing — the
// plan is cached and the row scratch lives on the stack.
func TestInterpolatePreparedZeroAlloc(t *testing.T) {
	m := Grid(16, 16, 7, 7).Prepared()
	data := make([]float32, 12*16*16)
	if allocs := testing.AllocsPerRun(20, func() { m.Interpolate(data, 12) }); allocs != 0 {
		t.Fatalf("prepared Interpolate allocates %.1f objects/op, want 0", allocs)
	}
}
