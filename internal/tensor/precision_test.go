package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
	}{
		{"fp32", FP32}, {"float32", FP32}, {"", FP32},
		{"fp16", FP16}, {"FP16", FP16}, {"half", FP16},
		{"int8", Int8}, {" Int8 ", Int8}, {"i8", Int8},
	}
	for _, c := range cases {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if got.String() == "" {
			t.Fatalf("Precision(%v).String() empty", got)
		}
	}
	_, err := ParsePrecision("bf16")
	var unknown *UnknownPrecisionError
	if !errors.As(err, &unknown) {
		t.Fatalf("ParsePrecision(bf16) error %v, want UnknownPrecisionError", err)
	}
	if unknown.Name != "bf16" {
		t.Fatalf("UnknownPrecisionError.Name = %q, want bf16", unknown.Name)
	}
}

// TestPrecisionStringOutOfRange: values outside the enum render as their
// number (the Backend.String form), not as a character offset from '0'.
func TestPrecisionStringOutOfRange(t *testing.T) {
	for p, want := range map[Precision]string{10: "Precision(10)", -3: "Precision(-3)"} {
		if got := p.String(); got != want {
			t.Errorf("Precision(%d).String() = %q, want %q", int32(p), got, want)
		}
	}
}

func TestF16RoundProperties(t *testing.T) {
	f16Round := func(x float32) float32 {
		var out [1]float32
		f16RoundInto(out[:], []float32{x})
		return out[0]
	}
	// Exact fixtures spanning the format's edges.
	fixtures := []struct{ in, want float32 }{
		{0, 0}, {1, 1}, {-1, -1}, {0.5, 0.5}, {65504, 65504},
		{1e-8, 0},                        // below half the smallest subnormal
		{100000, float32(math.Inf(1))},   // overflow saturates
		{-100000, float32(math.Inf(-1))}, // ...on both sides
	}
	for _, f := range fixtures {
		if got := f16Round(f.in); got != f.want {
			t.Fatalf("f16Round(%g) = %g, want %g", f.in, got, f.want)
		}
	}
	if !math.IsNaN(float64(f16Round(float32(math.NaN())))) {
		t.Fatal("f16Round(NaN) is not NaN")
	}
	// Normal-range values: idempotent, sign-preserving, relative error
	// within the half-precision unit roundoff 2^-11.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		x := (rng.Float32()*2 - 1) * 200
		r := f16Round(x)
		if f16Round(r) != r {
			t.Fatalf("f16Round not idempotent at %g: %g -> %g", x, r, f16Round(r))
		}
		if err := math.Abs(float64(r-x)) / math.Max(math.Abs(float64(x)), 6.1e-5); err > 1.0/2048 {
			t.Fatalf("f16Round(%g) = %g: relative error %g", x, r, err)
		}
	}
}

// TestMatMulFP16MatchesRoundedOperands pins the FP16 semantics: the
// product equals the full-precision GEMM of half-rounded operands.
func TestMatMulFP16MatchesRoundedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, backend := range []Backend{Serial, Blocked} {
		eng := NewEngine(backend, 1)
		eng.SetPrecision(FP16)
		m, k, n := 9, 31, 14
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		got := New(m, n)
		eng.MatMulInto(got, a, b)

		ra, rb := New(m, k), New(k, n)
		f16RoundInto(ra.Data, a.Data)
		f16RoundInto(rb.Data, b.Data)
		ref := NewEngine(backend, 1)
		want := New(m, n)
		ref.MatMulInto(want, ra, rb)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("backend %v elem %d: fp16 %g, rounded-fp32 %g", backend, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// int8Ref is an independent reimplementation of the quantized product
// (same scheme, naive loops) that the engine path must match exactly.
func int8Ref(a, b []float32, m, k, n int) []float32 {
	sa, sb := make([]float32, m), make([]float32, n)
	a8, b8 := make([]int8, m*k), make([]int8, k*n)
	quantizeRowsInt8(a8, sa, a, m, k)
	quantizeColsInt8(b8, sb, b, k, n)
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for kk := 0; kk < k; kk++ {
				acc += int32(a8[i*k+kk]) * int32(b8[kk*n+j])
			}
			c[i*n+j] = float32(acc) * sa[i] * sb[j]
		}
	}
	return c
}

func TestMatMulInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range [][3]int{{1, 7, 5}, {9, 31, 14}, {16, 64, 33}} {
		m, k, n := d[0], d[1], d[2]
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		want := int8Ref(a.Data, b.Data, m, k, n)

		// The serial oracle and the row-sharded default engines agree
		// exactly: integer accumulation is order-free per row and rows
		// are disjoint.
		for _, mk := range []struct {
			backend Backend
			workers int
		}{{Serial, 1}, {Auto, 4}, {Blocked, 4}} {
			eng := NewEngine(mk.backend, mk.workers)
			eng.SetParallelThreshold(0)
			eng.SetPrecision(Int8)
			got := New(m, n)
			eng.MatMulInto(got, a, b)
			for i := range got.Data {
				if got.Data[i] != want[i] {
					t.Fatalf("%v/%d m=%d k=%d n=%d elem %d: got %g, want %g",
						mk.backend, mk.workers, m, k, n, i, got.Data[i], want[i])
				}
			}
		}

		// And the quantized product tracks the fp32 one: symmetric int8
		// with per-row/per-column scales keeps elementwise error within
		// ~k·maxA·maxB/127² of the exact product; check a generous
		// relative-to-norm bound.
		fp := New(m, n)
		NewEngine(Serial, 1).MatMulInto(fp, a, b)
		var norm float64
		for _, v := range fp.Data {
			norm += float64(v) * float64(v)
		}
		norm = math.Sqrt(norm / float64(len(fp.Data)))
		for i := range want {
			if math.Abs(float64(want[i]-fp.Data[i])) > 0.05*math.Max(norm, 1) {
				t.Fatalf("m=%d k=%d n=%d elem %d: int8 %g vs fp32 %g (rms %g)",
					m, k, n, i, want[i], fp.Data[i], norm)
			}
		}
	}
}

func TestMatMulInt8ZeroOperands(t *testing.T) {
	eng := NewEngine(Serial, 1)
	eng.SetPrecision(Int8)
	a, b := New(3, 4), New(4, 2)
	c := New(3, 2)
	c.Data[0] = 42 // must be overwritten
	eng.MatMulInto(c, a, b)
	for i, v := range c.Data {
		if v != 0 {
			t.Fatalf("zero×zero elem %d = %g", i, v)
		}
	}
}

// TestPrecisionForwardOnly pins that reduced precision applies to the
// forward product only: the transposed (backward) forms stay fp32.
func TestPrecisionForwardOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a, b := randTensor(rng, 12, 7), randTensor(rng, 12, 9)
	ref := NewEngine(Serial, 1)
	want := ref.MatMulTransA(a, b)
	for _, p := range []Precision{FP16, Int8} {
		eng := NewEngine(Serial, 1)
		eng.SetPrecision(p)
		got := eng.MatMulTransA(a, b)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("precision %v leaked into MatMulTransA at elem %d", p, i)
			}
		}
	}
}

// TestFusedPackReducedPrecisionFallback checks MatMulIm2colInto remains
// correct (via materialize-and-delegate) when the engine is quantized.
func TestFusedPackReducedPrecisionFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := Im2colGeom{C: 3, H: 9, W: 9, K: 3, Stride: 1, Pad: 1, HO: 9, WO: 9}
	m := 6
	a := randTensor(rng, m, g.Rows())
	x := make([]float32, g.C*g.H*g.W)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	cols := New(g.Rows(), g.Cols())
	im2colGeomInto(cols.Data, x, g)
	for _, p := range []Precision{FP16, Int8} {
		eng := NewEngine(Blocked, 1)
		eng.SetPrecision(p)
		got := New(m, g.Cols())
		eng.MatMulIm2colInto(got, a, x, g)
		want := New(m, g.Cols())
		eng.MatMulInto(want, a, cols)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("precision %v elem %d: fused-entry %g, dense %g", p, i, got.Data[i], want.Data[i])
			}
		}
	}
}
