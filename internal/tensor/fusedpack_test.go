package tensor

import (
	"math"
	"math/rand"
	"slices"
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
// fused kernel, unsharded and sharded into four stripes, and asserts
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
		blockedGEMMIm2col(got.Data, a.Data, nil, x.Data, m, g, tile, workers)
		if !bitIdentical(got, want) {
			t.Fatalf("fused %d-worker geom %+v m=%d tile %v: diverges bit-for-bit from two-step im2col+packBRange",
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
		blockedGEMMIm2col(got.Data, a.Data, nil, x.Data[s*img:(s+1)*img], m, one, tile, 1)
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

// TestFusedPackEveryBackend covers MatMulIm2colInto on both backends: the
// serial oracle's materializing fallback must agree exactly with the naive
// GEMM over the materialized column matrix, and blocked takes the fused
// path, bit-identical sharded or not.
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
	blk, ref := testEngines()
	want := run(ref)
	if !bitIdentical(run(blk), want) {
		t.Fatal("sharded / unsharded blocked fused GEMMs are not bit-identical")
	}
	if !bitIdentical(want, ref.MatMul(a, cols)) {
		t.Fatal("fused GEMM diverges from the blocked GEMM over the materialized columns")
	}
}

// TestFusedPackGeomValidate pins the geometry checks MatMulIm2colInto
// relies on before indexing the image, one case per rejection.
func TestFusedPackGeomValidate(t *testing.T) {
	good := Im2colGeom{C: 1, H: 5, W: 5, K: 3, Stride: 2, Pad: 0, HO: 2, WO: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	sampled := Im2colGeom{C: 2, H: 7, W: 9, K: 3, Stride: 1, Pad: 1, HO: 7, WO: 9, N: 3, SX: []int{0, 4, 8}, SY: []int{6}}
	if err := sampled.Validate(); err != nil {
		t.Fatalf("valid sampled geometry rejected: %v", err)
	}
	if got := sampled.Cols(); got != 3*3*1 {
		t.Fatalf("sampled Cols() = %d, want N·len(SX)·len(SY) = 9", got)
	}
	kept := func(sx, sy []int) Im2colGeom {
		g := sampled
		g.SX, g.SY = sx, sy
		return g
	}
	bad := map[string]Im2colGeom{
		"no channels":        {C: 0, H: 5, W: 5, K: 3, Stride: 1, Pad: 0, HO: 3, WO: 3},
		"HO mismatch":        {C: 1, H: 5, W: 5, K: 3, Stride: 1, Pad: 0, HO: 4, WO: 3},
		"zero stride":        {C: 1, H: 5, W: 5, K: 3, Stride: 0, Pad: 0, HO: 3, WO: 3},
		"negative pad":       {C: 1, H: 5, W: 5, K: 3, Stride: 1, Pad: -1, HO: 3, WO: 3},
		"negative N":         {C: 1, H: 5, W: 5, K: 3, Stride: 2, Pad: 0, HO: 2, WO: 2, N: -1},
		"columns without SY": kept([]int{0, 1}, nil),
		"rows without SX":    kept(nil, []int{0}),
		"empty SX":           kept([]int{}, []int{0}),
		"empty SY":           kept([]int{0}, []int{}),
		"SX repeats":         kept([]int{1, 1}, []int{0}),
		"SX descends":        kept([]int{4, 2}, []int{0}),
		"SY descends":        kept([]int{0}, []int{3, 2}),
		"SX negative":        kept([]int{-1, 2}, []int{0}),
		"SX reaches WO":      kept([]int{2, 9}, []int{0}),
		"SY reaches HO":      kept([]int{2}, []int{0, 7}),
	}
	for name, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: bad geometry accepted: %+v", name, g)
		}
	}
}

// TestFusedPackZeroAlloc is the steady-state guard for the fused path:
// after warm-up, a serial blocked MatMulIm2colInto must allocate nothing
// — no column matrix, panels from the pooled free list, the packer's
// row-offset table on its stack — on a full and on a sampled geometry.
func TestFusedPackZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	_, bs, _ := blockedEngines()
	full := Im2colGeom{C: 3, H: 15, W: 15, K: 3, Stride: 1, Pad: 1, HO: 15, WO: 15}
	sampled := full
	sampled.N, sampled.SX, sampled.SY = 2, []int{1, 4, 7, 10, 13}, []int{0, 2, 5, 9, 11, 14}
	for name, g := range map[string]Im2colGeom{"full": full, "sampled": sampled} {
		rng := rand.New(rand.NewSource(12))
		a := randTensor(rng, 16, g.Rows())
		x := randTensor(rng, g.Images(), g.C, g.H, g.W)
		c := New(16, g.Cols())
		run := func() { bs.MatMulIm2colInto(c, a, x.Data, g) }
		run() // warm the panel pool and the lastTile record
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("%s: steady-state fused GEMM allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}

// TestPackGatherFullPanelsMatchGeneric holds the unrolled full-panel
// gathers — packGather32's four 8-column quarters, packGather16's two
// halves and packGather8 — to the
// generic packGather loop bit for bit, on scattered column bases (no
// 4-float runs, so packBIm2col would take these paths) over inputs that
// hold negative zero and a NaN payload.
func TestPackGatherFullPanelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := make([]float32, 4096)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	x[17], x[99] = float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc01234)
	bits := func(v []float32) []uint32 {
		out := make([]uint32, len(v))
		for i, f := range v {
			out[i] = math.Float32bits(f)
		}
		return out
	}
	for trial := 0; trial < 300; trial++ {
		nr := []int{32, 16, 8}[trial%3]
		rowoff := make([]int, 1+rng.Intn(40))
		for kk := range rowoff {
			rowoff[kk] = rng.Intn(2048)
		}
		var base [maxNR]int
		for j := range base[:nr] {
			base[j] = rng.Intn(2048)
		}
		want, got := make([]float32, len(rowoff)*nr), make([]float32, len(rowoff)*nr)
		for i := range got {
			got[i] = -7 // every packed float must be written
		}
		packGather(want, x, base[:nr], rowoff, nr)
		switch nr {
		case 32:
			packGather32(got, x, &base, rowoff)
		case 16:
			packGather16(got, x, &base, rowoff)
		default:
			packGather8(got, x, (*[8]int)(base[:]), rowoff, 8)
		}
		if !slices.Equal(bits(got), bits(want)) {
			t.Fatalf("trial %d (nr=%d kc=%d): unrolled gather differs from packGather", trial, nr, len(rowoff))
		}
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

// keptFrom turns a fuzzed bitmask into an ascending kept list over [0, n):
// bit i keeps coordinate i, and an empty pick keeps the mask's low bits'
// choice of a single coordinate, so the list is never empty.
func keptFrom(mask uint32, n int) []int {
	var kept []int
	for i := 0; i < n; i++ {
		if mask>>uint(i)&1 == 1 {
			kept = append(kept, i)
		}
	}
	if kept == nil {
		kept = []int{int(mask>>27) % n}
	}
	return kept
}

// FuzzSampledPackVsTwoStep fuzzes the one packer on what perforation adds:
// any valid geometry up to 29×29 with random ascending kept columns and
// rows, n = 1–4 images, a random KC slab [pc, pc+kc) and the panel range
// packed as two random shards must produce, byte for byte, the panels of
// materializing the sampled column matrix and running packBRange over it
// — at NR = 32, 16, 8 and 4 — and the whole GEMM must then match the two-step
// product and the batch-1 oracle. The seeds are the three perforated
// layers of the served level 9 (7×7 of 16×16, 5×5 of 8×8, 3×3 of 4×4).
func FuzzSampledPackVsTwoStep(f *testing.F) {
	f.Add(uint8(2), uint8(15), uint8(15), uint8(2), uint8(0), uint8(1), uint8(3), uint32(0x552a), uint32(0x552a), uint8(0), uint8(26), uint8(9), uint8(11), int64(1))
	f.Add(uint8(3), uint8(7), uint8(7), uint8(2), uint8(0), uint8(1), uint8(1), uint32(0xb5), uint32(0xb5), uint8(40), uint8(200), uint8(3), uint8(23), int64(2))
	f.Add(uint8(3), uint8(3), uint8(3), uint8(2), uint8(0), uint8(1), uint8(2), uint32(0xd), uint32(0xd), uint8(7), uint8(5), uint8(1), uint8(7), int64(3))
	f.Add(uint8(0), uint8(20), uint8(11), uint8(4), uint8(2), uint8(2), uint8(0), uint32(0), uint32(1<<31|3), uint8(3), uint8(0), uint8(0), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, c8, h8, w8, k8, s8, p8, n8 uint8, mx, my uint32, pc8, kc8, split8, m8 uint8, seed int64) {
		g := Im2colGeom{
			C: 1 + int(c8)%4, H: 1 + int(h8)%29, W: 1 + int(w8)%29, K: 1 + int(k8)%5,
			Stride: 1 + int(s8)%4, Pad: int(p8) % 3, N: 1 + int(n8)%4,
		}
		if g.H+2*g.Pad < g.K || g.W+2*g.Pad < g.K {
			t.Skip("degenerate geometry")
		}
		g.HO = (g.H+2*g.Pad-g.K)/g.Stride + 1
		g.WO = (g.W+2*g.Pad-g.K)/g.Stride + 1
		g.SX, g.SY = keptFrom(mx, g.WO), keptFrom(my, g.HO)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		x := randTensor(rng, g.Images(), g.C, g.H, g.W)
		k, n := g.Rows(), g.Cols()
		cols := make([]float32, k*n)
		im2colGeomInto(cols, x.Data, g)
		xp, gp := padImages(x.Data, g)
		defer PutScratch(xp)
		pc := int(pc8) % k
		kc := 1 + int(kc8)%(k-pc)
		for _, nr := range []int{32, 16, 8, 4} {
			panels := (n + nr - 1) / nr
			mid := int(split8) % (panels + 1)
			want, got := make([]float32, kc*panels*nr), make([]float32, kc*panels*nr)
			for i := range got {
				want[i], got[i] = -7, -9 // every packed float must be written
			}
			packBRange(want, cols, n, pc, kc, kc, n, nr, false, 0, panels)
			packBIm2col(got, xp, gp, pc, kc, kc, nr, mid, panels)
			packBIm2col(got, xp, gp, pc, kc, kc, nr, 0, mid)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("geom %+v slab [%d,+%d) nr %d split %d/%d: packed float %d = %g, two-step %g",
						g, pc, kc, nr, mid, panels, i, got[i], want[i])
				}
			}
		}
		checkFusedShape(t, g, 1+int(m8)%24, seed, testTile)
	})
}

// TestPackedIm2colMatchesUnpacked holds MatMulIm2colPackedInto to
// MatMulIm2colInto bit for bit: stripes reading a PackedA's blocks must see
// exactly the bytes they would have packed. Random filter counts put the M
// edge inside and past one MC block; every geometry has K = C·k·k over two
// or three KC steps and a column count no NR divides: full, perforated and
// pointwise (a flattened 1×1, as nn lowers one), at batch 1 and 3. Each
// runs unsharded and as two and three stripes, at the 12×32 and 6×16
// tiles and the build's own, with the SIMD kernels on and off. A pack made
// at another tile, the serial oracle, M = 1 and fp16 take the unpacked
// call.
func TestPackedIm2colMatchesUnpacked(t *testing.T) {
	defer func(was TileConfig) { DefaultTile = was }(DefaultTile)
	defer SetSIMD(SetSIMD(true))
	full := Im2colGeom{C: 33, H: 11, W: 9, K: 3, Stride: 1, Pad: 1, HO: 11, WO: 9}
	perf := full
	perf.SX, perf.SY = []int{0, 3, 4, 8}, []int{1, 2, 6, 7, 10}
	point := Im2colGeom{C: 530, H: 1, W: 37, K: 1, Stride: 1, Pad: 0, HO: 1, WO: 37}
	engines := make([]*Engine, 3)
	for i := range engines {
		engines[i] = NewEngine(Blocked, i+1)
		engines[i].SetParallelThreshold(0)
	}
	rng := rand.New(rand.NewSource(44))
	tiles := []TileConfig{{MC: 120, KC: 256, MR: 12, NR: 32}, {MC: 120, KC: 256, MR: 6, NR: 16}, DefaultTile}
	for _, tile := range tiles {
		for _, simd := range []bool{true, false} {
			DefaultTile = tile
			SetSIMD(simd)
			for gi, g := range []Im2colGeom{full, perf, point} {
				for _, n := range []int{1, 3} {
					g.N = n
					m := 2 + rng.Intn(2*tile.MC)
					a := randTensor(rng, m, g.Rows())
					x := randTensor(rng, g.Images(), g.C, g.H, g.W)
					pa := PackA(a)
					for w, e := range engines {
						want, got := New(m, g.Cols()), New(m, g.Cols())
						for i := range got.Data {
							got.Data[i] = -999
						}
						e.MatMulIm2colInto(want, a, x.Data, g)
						e.MatMulIm2colPackedInto(got, pa, x.Data, g)
						if !bitIdentical(got, want) {
							t.Fatalf("tile %v simd %v geom %d n=%d m=%d, %d stripes: packed A differs from unpacked",
								tile, simd, gi, n, m, w+1)
						}
					}
				}
			}
		}
	}

	// The fallbacks: each must be the unpacked call on the pack's source.
	DefaultTile = tiles[2]
	g := full
	g.N = 2
	a := randTensor(rng, 1, g.Rows())
	x := randTensor(rng, g.Images(), g.C, g.H, g.W)
	fp16 := NewEngine(Blocked, 1)
	fp16.SetPrecision(FP16)
	other := tiles[0]
	if other == DefaultTile {
		other = tiles[1]
	}
	for name, c := range map[string]struct {
		a   *Tensor
		pa  func(*Tensor) *PackedA
		eng *Engine
	}{
		"M=1":        {a, PackA, engines[1]},
		"serial":     {randTensor(rng, 7, g.Rows()), PackA, NewEngine(Serial, 1)},
		"fp16":       {randTensor(rng, 7, g.Rows()), PackA, fp16},
		"stale tile": {randTensor(rng, 7, g.Rows()), packAt(other), engines[1]},
	} {
		want, got := New(c.a.Dim(0), g.Cols()), New(c.a.Dim(0), g.Cols())
		c.eng.MatMulIm2colInto(want, c.a, x.Data, g)
		c.eng.MatMulIm2colPackedInto(got, c.pa(c.a), x.Data, g)
		if !bitIdentical(got, want) {
			t.Fatalf("%s: packed call differs from the unpacked one", name)
		}
	}

	// The packed entry keeps MatMulIm2colInto's checks.
	pa := PackA(randTensor(rng, 7, g.Rows()+1))
	mustPanic(t, "A shape", func() { engines[0].MatMulIm2colPackedInto(New(7, g.Cols()), pa, x.Data, g) })
	pa = PackA(randTensor(rng, 7, g.Rows()))
	mustPanic(t, "short input", func() { engines[0].MatMulIm2colPackedInto(New(7, g.Cols()), pa, x.Data[1:], g) })
	mustPanic(t, "output shape", func() { engines[0].MatMulIm2colPackedInto(New(6, g.Cols()), pa, x.Data, g) })
}

// packAt returns PackA at tile t, whatever DefaultTile is.
func packAt(t TileConfig) func(*Tensor) *PackedA {
	return func(a *Tensor) *PackedA {
		defer func(was TileConfig) { DefaultTile = was }(DefaultTile)
		DefaultTile = t
		return PackA(a)
	}
}
