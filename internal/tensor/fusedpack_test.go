package tensor

import (
	"math/rand"
	"testing"
)

// geomFrom maps raw fuzz bytes onto a valid conv geometry: channels,
// spatial extent, filter size, stride and pad are clamped so the output
// extent is positive, and HO/WO are derived from the conv arithmetic
// (the only consistent values Validate accepts).
func geomFrom(c8, hw8, k8, s8, p8 uint8) (Im2colGeom, bool) {
	c := 1 + int(c8)%4
	h := 1 + int(hw8)%14
	w := 1 + int(hw8>>4)%14
	k := 1 + int(k8)%5
	stride := 1 + int(s8)%3
	pad := int(p8) % 3
	if h+2*pad < k || w+2*pad < k {
		return Im2colGeom{}, false
	}
	g := Im2colGeom{
		C: c, H: h, W: w, K: k, Stride: stride, Pad: pad,
		HO: (h+2*pad-k)/stride + 1,
		WO: (w+2*pad-k)/stride + 1,
	}
	return g, g.Validate() == nil
}

// checkFusedShape runs one (geometry, filter count) case through the
// fused kernel, unsharded and sharded across a 4-worker pool, and asserts
// both are bit-identical to the two-step im2col + blocked GEMM reference.
// It drives the kernels directly (see runBlocked) so a single-filter case
// still exercises the fused packer.
func checkFusedShape(t *testing.T, g Im2colGeom, m int, seed int64, tile TileConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k, n := g.Rows(), g.Cols()
	a := randTensor(rng, m, k)
	x := randTensor(rng, g.Images(), g.C, g.H, g.W)

	// Two-step reference: materialize the column matrix, then the same
	// blocked GEMM. Identical packed panels ⇒ the fused result must match
	// bit-for-bit, not just within tolerance.
	cols := New(k, n)
	im2colGeomInto(cols.Data, x.Data, g)
	want := New(m, n)
	runBlocked(1, tile, want, a, cols, m, n, k, false, false)

	for _, workers := range []int{1, 4} {
		got := New(m, n)
		for i := range got.Data {
			got.Data[i] = -999
		}
		blockedGEMMIm2col(got.Data, a.Data, x.Data, m, g, tile, newWorkerPool(workers), workers > 1)
		if !bitIdentical(got, want) {
			t.Fatalf("fused %d-worker geom %+v m=%d tile %v: diverges bit-for-bit from two-step im2col+packB",
				workers, g, m, tile)
		}
	}
	if g.Images() == 1 {
		return
	}
	// Batch-1 oracle: image s alone must reproduce columns
	// [s·HO·WO, (s+1)·HO·WO) of the folded product bit for bit — a column's
	// K order does not depend on which panel or neighbour it rides with.
	one := g
	one.N = 1
	per, img := one.Cols(), g.C*g.H*g.W
	got := New(m, per)
	for s := 0; s < g.Images(); s++ {
		blockedGEMMIm2col(got.Data, a.Data, x.Data[s*img:(s+1)*img], m, one, tile, newWorkerPool(1), false)
		for i := 0; i < m; i++ {
			for j := 0; j < per; j++ {
				if got.Data[i*per+j] != want.Data[i*n+s*per+j] {
					t.Fatalf("folded geom %+v m=%d tile %v: image %d element (%d,%d) differs from its batch-1 product",
						g, m, tile, s, i, j)
				}
			}
		}
	}
}

// TestFusedPackKnownShapes pins fused-vs-two-step equivalence on real
// conv geometries: AlexNet conv1 (stride 4), a padded VGG-style 3×3, a
// 1×1, and a pad-heavy shape where most filter taps hang over the edge.
func TestFusedPackKnownShapes(t *testing.T) {
	cases := []struct {
		g Im2colGeom
		m int
	}{
		{Im2colGeom{C: 3, H: 21, W: 21, K: 5, Stride: 4, Pad: 0, HO: 5, WO: 5}, 8},
		{Im2colGeom{C: 2, H: 9, W: 9, K: 3, Stride: 1, Pad: 1, HO: 9, WO: 9}, 11},
		{Im2colGeom{C: 4, H: 6, W: 6, K: 1, Stride: 1, Pad: 0, HO: 6, WO: 6}, 5},
		{Im2colGeom{C: 1, H: 4, W: 4, K: 3, Stride: 2, Pad: 2, HO: 3, WO: 3}, 3},
	}
	for i, c := range cases {
		if err := c.g.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		checkFusedShape(t, c.g, c.m, int64(500+i), testTile)
		checkFusedShape(t, c.g, c.m, int64(600+i), DefaultTile)
	}
}

// TestFoldedIm2colKnownShapes pins the batch-folded walker on output
// planes that are not a multiple of NR, so panels straddle two images:
// 27×27 (AlexNet CONV2), 13×13 (CONV3) and a stride-4 5×5, each at
// n = 1–5 against the materialized column matrix and the batch-1 oracle.
func TestFoldedIm2colKnownShapes(t *testing.T) {
	geoms := []Im2colGeom{
		{C: 2, H: 27, W: 27, K: 5, Stride: 1, Pad: 2, HO: 27, WO: 27},
		{C: 3, H: 13, W: 13, K: 3, Stride: 1, Pad: 1, HO: 13, WO: 13},
		{C: 3, H: 21, W: 21, K: 5, Stride: 4, Pad: 0, HO: 5, WO: 5},
		{C: 2, H: 9, W: 9, K: 3, Stride: 2, Pad: 1, HO: 5, WO: 5},
		{C: 5, H: 1, W: 35, K: 1, Stride: 1, Pad: 0, HO: 1, WO: 35}, // a flattened 1×1 conv
	}
	for i, g := range geoms {
		for n := 1; n <= 5; n++ {
			g.N = n
			if err := g.Validate(); err != nil {
				t.Fatalf("geom %d: %v", i, err)
			}
			checkFusedShape(t, g, 7, int64(700+10*i+n), testTile)
			checkFusedShape(t, g, 12, int64(800+10*i+n), DefaultTile)
		}
	}
}

// TestFusedPackEveryBackend covers MatMulIm2colInto across the backend
// names: the serial oracle's materializing fallback must agree exactly
// with the naive GEMM over the materialized column matrix, and Auto must
// take the fused path — bit-identical to explicit Blocked, sharded or not.
func TestFusedPackEveryBackend(t *testing.T) {
	g := Im2colGeom{C: 2, H: 7, W: 7, K: 3, Stride: 2, Pad: 1, HO: 4, WO: 4, N: 3}
	rng := rand.New(rand.NewSource(9))
	a := randTensor(rng, 6, g.Rows())
	x := randTensor(rng, g.Images(), g.C, g.H, g.W)
	cols := New(g.Rows(), g.Cols())
	im2colGeomInto(cols.Data, x.Data, g)
	run := func(e *Engine) *Tensor {
		got := New(6, g.Cols())
		e.MatMulIm2colInto(got, a, x.Data, g)
		return got
	}
	if !bitIdentical(run(NewEngine(Serial, 1)), NewEngine(Serial, 1).MatMul(a, cols)) {
		t.Fatal("serial fallback diverges from the naive GEMM over the materialized columns")
	}
	auto, blk, ref := testEngines()
	want := run(ref)
	if !bitIdentical(run(auto), want) || !bitIdentical(run(blk), want) {
		t.Fatal("auto / blocked / unsharded blocked fused GEMMs are not bit-identical")
	}
	if !bitIdentical(want, ref.MatMul(a, cols)) {
		t.Fatal("fused GEMM diverges from the blocked GEMM over the materialized columns")
	}
}

// TestFusedPackGeomValidate pins the geometry checks MatMulIm2colInto
// relies on before indexing the image.
func TestFusedPackGeomValidate(t *testing.T) {
	good := Im2colGeom{C: 1, H: 5, W: 5, K: 3, Stride: 2, Pad: 0, HO: 2, WO: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []Im2colGeom{
		{C: 0, H: 5, W: 5, K: 3, Stride: 1, Pad: 0, HO: 3, WO: 3},
		{C: 1, H: 5, W: 5, K: 3, Stride: 1, Pad: 0, HO: 4, WO: 3}, // HO mismatch
		{C: 1, H: 5, W: 5, K: 3, Stride: 0, Pad: 0, HO: 3, WO: 3},
		{C: 1, H: 5, W: 5, K: 3, Stride: 1, Pad: -1, HO: 3, WO: 3},
		{C: 1, H: 5, W: 5, K: 3, Stride: 2, Pad: 0, HO: 2, WO: 2, N: -1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d accepted: %+v", i, g)
		}
	}
}

// TestFusedPackZeroAlloc is the steady-state guard for the fused path:
// after warm-up, a serial blocked MatMulIm2colInto must allocate nothing
// — no column matrix, and panels from the pooled free list.
func TestFusedPackZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	_, bs, _ := blockedEngines()
	g := Im2colGeom{C: 3, H: 15, W: 15, K: 3, Stride: 1, Pad: 1, HO: 15, WO: 15}
	rng := rand.New(rand.NewSource(12))
	a := randTensor(rng, 16, g.Rows())
	x := randTensor(rng, g.C, g.H, g.W)
	c := New(16, g.Cols())
	run := func() { bs.MatMulIm2colInto(c, a, x.Data, g) }
	run() // warm the panel pool and the lastTile record
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state fused GEMM allocates %.1f objects/op, want 0", allocs)
	}
}

// FuzzFusedPackVsTwoStep fuzzes the fused im2col→pack-B path: any valid
// (geometry, filter count) must be bit-for-bit identical to materializing
// the column matrix and running the same blocked GEMM, on both the serial
// and the sharded engine. The committed corpus under testdata/fuzz pins
// stride/pad/boundary seeds.
func FuzzFusedPackVsTwoStep(f *testing.F) {
	f.Add(uint8(2), uint8(0x97), uint8(2), uint8(0), uint8(1), uint8(9), int64(1))
	f.Add(uint8(0), uint8(0x55), uint8(4), uint8(1), uint8(2), uint8(3), int64(2))
	f.Add(uint8(3), uint8(0xDD), uint8(0), uint8(2), uint8(0), uint8(1), int64(3))
	f.Add(uint8(1), uint8(0x31), uint8(1), uint8(0), uint8(0), uint8(16), int64(4))
	f.Fuzz(func(t *testing.T, c8, hw8, k8, s8, p8, m8 uint8, seed int64) {
		g, ok := geomFrom(c8, hw8, k8, s8, p8)
		if !ok {
			t.Skip("degenerate geometry")
		}
		m := 1 + int(m8)%24
		checkFusedShape(t, g, m, seed, testTile)
	})
}

// FuzzFoldedIm2col fuzzes the batch-folded fused walker: geometries up to
// 29×29 with strides 1–4, pad 0–2 and n = 1–5 images must match the
// materialized column matrix + plain blocked GEMM, sharded or not, and
// every image's columns must equal its batch-1 product bit for bit.
func FuzzFoldedIm2col(f *testing.F) {
	f.Add(uint8(1), uint8(26), uint8(26), uint8(4), uint8(0), uint8(2), uint8(2), uint8(6), int64(1)) // 27×27
	f.Add(uint8(2), uint8(12), uint8(12), uint8(2), uint8(0), uint8(1), uint8(4), uint8(9), int64(2)) // 13×13
	f.Add(uint8(2), uint8(20), uint8(20), uint8(4), uint8(3), uint8(0), uint8(3), uint8(1), int64(3)) // 5×5, stride 4
	f.Add(uint8(0), uint8(8), uint8(10), uint8(2), uint8(1), uint8(2), uint8(1), uint8(0), int64(4))  // stride 2, pad 2
	f.Add(uint8(3), uint8(4), uint8(6), uint8(0), uint8(0), uint8(0), uint8(0), uint8(22), int64(5))  // 1×1, n = 1
	f.Fuzz(func(t *testing.T, c8, h8, w8, k8, s8, p8, n8, m8 uint8, seed int64) {
		g := Im2colGeom{
			C: 1 + int(c8)%4, H: 1 + int(h8)%29, W: 1 + int(w8)%29, K: 1 + int(k8)%5,
			Stride: 1 + int(s8)%4, Pad: int(p8) % 3, N: 1 + int(n8)%5,
		}
		if g.H+2*g.Pad < g.K || g.W+2*g.Pad < g.K {
			t.Skip("degenerate geometry")
		}
		g.HO = (g.H+2*g.Pad-g.K)/g.Stride + 1
		g.WO = (g.W+2*g.Pad-g.K)/g.Stride + 1
		checkFusedShape(t, g, 1+int(m8)%24, seed, testTile)
	})
}
