//go:build amd64

package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkTailKernels runs the elementwise kernels through the AVX2 path and
// through their portable twins on the same inputs — src of any length and
// start alignment, read as rows of w floats — and compares bit for bit:
// ReLU on every input; MaxRows, PairMax and both Lerp directions on every
// output the twin computes as a non-NaN, with a NaN from the twin required
// to be a NaN from the vector path (x86 keeps the first operand's NaN
// payload, so which of two survives is not a property of the expression).
// lerp picks the Lerp plans' brackets and weights.
func checkTailKernels(t *testing.T, src []float32, w int, lerp *rand.Rand) {
	t.Helper()
	if !useAVX2FMA {
		t.Skip("host lacks AVX2+FMA")
	}
	defer func() { useAVX2FMA = true }()
	run := func(kernel string, n int, f func(dst []float32)) {
		t.Helper()
		got, want := make([]float32, n), make([]float32, n)
		useAVX2FMA = true
		f(got)
		useAVX2FMA = false
		f(want)
		for i := range want {
			g, e := got[i], want[i]
			if math.Float32bits(g) != math.Float32bits(e) && !(kernel != "ReLU" && e != e && g != g) {
				t.Fatalf("%s over %d floats, rows of %d: elem %d: simd %g (%#x), portable %g (%#x)",
					kernel, len(src), w, i, g, math.Float32bits(g), e, math.Float32bits(e))
			}
		}
	}
	n := len(src)
	run("ReLU", n, func(dst []float32) { ReLU(dst, src) })
	run("ReLU in place", n, func(dst []float32) { copy(dst, src); ReLU(dst, dst) })
	run("PairMax", n/2, func(dst []float32) { PairMax(dst, src) })
	rows := n / w
	for _, win := range [][2]int{{2, 2}, {3, 2}, {3, 1}, {2, 3}, {1, 1}} {
		size, stride := win[0], win[1]
		if rows >= size {
			out := (rows-size)/stride + 1
			run("MaxRows", out*w, func(dst []float32) { MaxRows(dst, src, w, size, stride) })
		}
	}

	// A plan over 1–3·w output coordinates: random brackets inside an
	// input of w, weights that include exact copies (0) and both ends.
	m := 1 + lerp.Intn(3*w)
	lo, hi, f := make([]int, m), make([]int, m), make([]float32, m)
	for i := range lo {
		lo[i] = lerp.Intn(w)
		hi[i] = lo[i] + lerp.Intn(w-lo[i])
		switch lerp.Intn(4) {
		case 0:
			f[i] = 0
		case 1:
			f[i] = 1
		default:
			f[i] = lerp.Float32()
		}
	}
	p := NewLerp(lo, hi, f)
	run("Lerp.Across", rows*m, func(dst []float32) { p.Across(dst, src, w) })
	if rows >= w { // as row coordinates the brackets lie inside the first w rows
		run("Lerp.Down", m*w, func(dst []float32) { p.Down(dst, src, w) })
	}
}

// tailSpecials are planted among the random bit patterns so that every
// kernel meets signed zeros, infinities, NaNs and denormals often.
var tailSpecials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xFFC00001), 1e-45, -1e-45, 1, -1,
}

// TestTailKernelsMatchPortable covers every row width 1–67 — so every mix
// of 8-wide steps, the 4-wide step and the Go tail — at every start
// alignment within a cache line's first eight floats, over enough rows
// for every pooling window and a Down plan.
func TestTailKernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for w := 1; w <= 67; w++ {
		rows := max(w, 7)
		buf := make([]float32, 8+rows*w)
		for off := 0; off < 8; off++ {
			for i := range buf {
				buf[i] = math.Float32frombits(rng.Uint32())
				if rng.Intn(5) == 0 {
					buf[i] = tailSpecials[rng.Intn(len(tailSpecials))]
				}
			}
			checkTailKernels(t, buf[off:][:rows*w], w, rng)
		}
	}
}

// FuzzTailKernels feeds arbitrary bytes to the kernels as float32 bit
// patterns, read as rows of 1 + w8%67 floats starting off floats into the
// buffer; seed picks the Lerp plans.
func FuzzTailKernels(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0xbf, 0, 0, 0xc0, 0x7f, 0, 0, 0, 0x80, 0, 0, 0x80, 0x7f}, uint8(1), uint8(0), int64(1))
	seed := make([]byte, 4*16*16)
	rand.New(rand.NewSource(5)).Read(seed)
	f.Add(seed, uint8(15), uint8(3), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, w8, off uint8, seed int64) {
		floats := make([]float32, len(data)/4)
		for i := range floats {
			floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		floats = floats[min(int(off%8), len(floats)):]
		checkTailKernels(t, floats, 1+int(w8)%67, rand.New(rand.NewSource(seed)))
	})
}
