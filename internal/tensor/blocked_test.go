package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pcnn/internal/par"
)

// Engines under test: the naive serial reference, blocked forced-serial
// (one worker), and blocked forced-parallel (four workers, zero threshold
// so every GEMM shards its NR panels).
func blockedEngines() (naive, blkSerial, blkParallel *Engine) {
	naive = NewEngine(Serial, 1)
	blkSerial = NewEngine(Blocked, 1)
	blkParallel = NewEngine(Blocked, 4)
	blkParallel.SetParallelThreshold(0)
	return naive, blkSerial, blkParallel
}

// runBlocked runs one GEMM straight on the blocked kernels — no engine, so
// single-row shapes are not rerouted to the matrix–vector path and the
// kernels' M == 1 edge handling stays covered — unsharded for one worker,
// otherwise split into that many stripes.
func runBlocked(workers int, tile TileConfig, c, a, b *Tensor, m, n, k int, aTrans, bTrans bool) {
	blockedGEMM(c.Data, a.Data, b.Data, m, n, k, aTrans, bTrans, tile, workers)
}

// testTile is a deliberately small, non-round tiling (MC not a multiple
// of MR, small KC) so modest test shapes cross every blocking boundary:
// partial MR/NR micro-tiles, partial MC blocks and partial KC panels.
var testTile = TileConfig{MC: 10, KC: 6, MR: 8, NR: 4}

// relClose reports |got-want| <= tol·max(1, |want|), the tolerance form
// the blocked backend is held to against the naive kernel (blocking
// reorders the float adds, so exact equality is not expected).
func relClose(got, want, tol float32) bool {
	diff := math.Abs(float64(got) - float64(want))
	scale := math.Max(1, math.Abs(float64(want)))
	return diff <= float64(tol)*scale
}

func checkTensorsClose(t *testing.T, what string, got, want *Tensor, tol float32) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: length %d vs %d", what, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if !relClose(got.Data[i], want.Data[i], tol) {
			t.Fatalf("%s: element %d = %g, want %g (tol %g)", what, i, got.Data[i], want.Data[i], tol)
		}
	}
}

// checkBlockedShape runs the three GEMM variants at one (m,k,n) shape
// and asserts (a) blocked-vs-naive within 1e-4 relative and (b) blocked
// serial vs blocked parallel bit-for-bit.
func checkBlockedShape(t *testing.T, m, k, n int, seed int64, tile TileConfig) {
	t.Helper()
	if kernelFor(tile.MR, tile.NR) == nil {
		t.Fatalf("tile %v: no %dx%d micro-kernel", tile, tile.MR, tile.NR)
	}
	naive := NewEngine(Serial, 1)
	rng := rand.New(rand.NewSource(seed))
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	at := randTensor(rng, k, m) // stored transposed for TransA
	bt := randTensor(rng, n, k) // stored transposed for TransB

	variants := []struct {
		name           string
		oracle         func(c *Tensor)
		a, b           *Tensor
		aTrans, bTrans bool
	}{
		{"MatMulInto", func(c *Tensor) { naive.MatMulInto(c, a, b) }, a, b, false, false},
		{"MatMulTransAInto", func(c *Tensor) { naive.MatMulTransAInto(c, at, b) }, at, b, true, false},
		{"MatMulTransBInto", func(c *Tensor) { naive.MatMulTransBInto(c, a, bt) }, a, bt, false, true},
	}
	for _, v := range variants {
		want := New(m, n)
		gotS := New(m, n)
		gotP := New(m, n)
		// Blocked Into forms must fully overwrite, like the naive ones.
		for i := range gotS.Data {
			gotS.Data[i] = 999
			gotP.Data[i] = -999
		}
		v.oracle(want)
		runBlocked(1, tile, gotS, v.a, v.b, m, n, k, v.aTrans, v.bTrans)
		runBlocked(4, tile, gotP, v.a, v.b, m, n, k, v.aTrans, v.bTrans)
		checkTensorsClose(t, v.name+" blocked-vs-naive", gotS, want, 1e-4)
		if !bitIdentical(gotS, gotP) {
			t.Fatalf("%s %dx%dx%d tile %v: blocked parallel diverges bit-for-bit from blocked serial",
				v.name, m, k, n, tile)
		}
	}
}

// TestBlockedBoundaryShapes is the table-driven ragged sweep: every
// dimension takes values 1..5 and each tile parameter ±1, so partial
// micro-tiles, partial MC blocks and partial KC panels are all hit.
func TestBlockedBoundaryShapes(t *testing.T) {
	mr, nr, mc, kc := testTile.MR, testTile.NR, testTile.MC, testTile.KC
	ms := []int{1, 2, 3, 5, mr - 1, mr + 1, mc - 1, mc + 1, 2*mc + 3}
	ks := []int{1, 2, 4, kc - 1, kc, kc + 1, 3*kc + 1}
	ns := []int{1, 3, 5, nr - 1, nr + 1, 2*nr + 1, 17}
	seed := int64(1)
	for _, m := range ms {
		for _, k := range ks {
			for _, n := range ns {
				seed++
				checkBlockedShape(t, m, k, n, seed, testTile)
			}
		}
	}
}

// TestBlockedDegenerateShapes pins the empty-dimension edge cases; an
// empty K must still zero the output, as the naive kernel does.
func TestBlockedDegenerateShapes(t *testing.T) {
	for i, s := range [][3]int{{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {0, 0, 0}, {1, 1, 1}} {
		checkBlockedShape(t, s[0], s[1], s[2], int64(200+i), testTile)
	}
}

// TestBlockedAllMicroKernels runs the boundary check once per built-in
// MR×NR register tile — the scalar 8×4, the 8×8, the 6×16 and the 12×32
// (SIMD where the host has them; kern*_test.go compares the SIMD tiles
// with the portable kernTile loop or with each other) — so every
// kernel's edge handling is exercised.
func TestBlockedAllMicroKernels(t *testing.T) {
	for i, mk := range [][2]int{{8, 4}, {8, 8}, {6, 16}, {12, 32}} {
		tile := TileConfig{MC: 3*mk[0] + 1, KC: 7, MR: mk[0], NR: mk[1]}
		checkBlockedShape(t, 2*tile.MC+3, 2*tile.KC+1, 3*tile.NR+2, int64(300+i), tile)
	}
}

// TestBlockedDefaultTileVGGSubshape exercises the production DefaultTile
// on a scaled-down VGG conv2_1 geometry (same aspect, smaller K·N), in
// both serial and sharded form.
func TestBlockedDefaultTileVGGSubshape(t *testing.T) {
	if testing.Short() {
		t.Skip("large GEMM in -short mode")
	}
	checkBlockedShape(t, 64, 600, 700, 42, DefaultTile)
}

// TestBlockedRandomShapes is the property sweep at the default tile's
// micro-kernel with random ragged shapes.
func TestBlockedRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 21, 33}
	for trial := 0; trial < 40; trial++ {
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		checkBlockedShape(t, m, k, n, int64(400+trial), testTile)
	}
}

// TestBlockedParallelWorkerCountInvariance pins the striped sharding
// contract: the result must be bit-for-bit identical at every worker
// count — including the conv-lowered regime where M fits in one MC block
// and all parallelism comes from the panel stripes, the M == 1 case where
// only the N dimension can shard at all, and, at the production tile,
// GEMMs with a short last K step (K = 2·KC + 3) whose panel count no
// worker count divides, so stripes of unequal length reach that step at
// different times while their neighbours still read the slab.
func TestBlockedParallelWorkerCountInvariance(t *testing.T) {
	nr := DefaultTile.NR
	shapes := []struct {
		m, k, n int
		tile    TileConfig
	}{
		{8, 40, 123, testTile}, // one MC block: panel stripes are the only shard axis
		{23, 17, 61, testTile}, // several partial blocks × partial panels
		{1, 50, 90, testTile},  // M == 1: N-only parallelism
		// 13 panels (prime): no worker count below divides them.
		{DefaultTile.MC + 9, 2*DefaultTile.KC + 3, 12*nr + 3, DefaultTile},
		{DefaultTile.MR + 3, 2*DefaultTile.KC + 3, 12*nr + 1, DefaultTile},
	}
	workers := []int{2, 3, 4, 7}
	for si, s := range shapes {
		rng := rand.New(rand.NewSource(int64(900 + si)))
		a, b := randTensor(rng, s.m, s.k), randTensor(rng, s.k, s.n)
		ref := New(s.m, s.n)
		runBlocked(1, s.tile, ref, a, b, s.m, s.n, s.k, false, false)
		for _, w := range workers {
			got := New(s.m, s.n)
			for i := range got.Data {
				got.Data[i] = -1
			}
			runBlocked(w, s.tile, got, a, b, s.m, s.n, s.k, false, false)
			if !bitIdentical(got, ref) {
				t.Fatalf("%dx%dx%d tile %v: %d-worker blocked GEMM diverges bit-for-bit from serial",
					s.m, s.k, s.n, s.tile, w)
			}
		}
	}

	// The fused im2col packer at the production tile with K = 30·3·3 =
	// 270 > KC: two K steps, the second short, over a batch of two padded
	// 10×10 images (200 columns: 13 panels at NR = 16, 25 at NR = 8).
	g := Im2colGeom{N: 2, C: 30, H: 10, W: 10, K: 3, Stride: 1, Pad: 1, HO: 10, WO: 10}
	if g.Rows() <= DefaultTile.KC {
		t.Fatalf("geometry K = %d does not exceed KC = %d", g.Rows(), DefaultTile.KC)
	}
	rng := rand.New(rand.NewSource(950))
	m := 20
	a := randTensor(rng, m, g.Rows())
	x := randTensor(rng, g.Images(), g.C, g.H, g.W)
	ref := New(m, g.Cols())
	blockedGEMMIm2col(ref.Data, a.Data, nil, x.Data, m, g, DefaultTile, 1)
	for _, w := range workers {
		got := New(m, g.Cols())
		blockedGEMMIm2col(got.Data, a.Data, nil, x.Data, m, g, DefaultTile, w)
		if !bitIdentical(got, ref) {
			t.Fatalf("fused geom %+v m=%d: %d-worker GEMM diverges bit-for-bit from serial", g, m, w)
		}
	}
}

// TestStripeSlabRegionsDisjoint is the packed-B layout guard, in pure
// offset arithmetic over random shapes, tiles and worker counts. Stripes
// (par.Chunks's chunks of the NR panels) run their K steps
// at their own pace, so the slab floats one stripe writes at any K step —
// the short last one included — must be disjoint from those every other
// stripe writes at any step, panels of one step must not overlap, and all
// of them must lie in the slab blockedGEMMPack allocates.
func TestStripeSlabRegionsDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 3000; trial++ {
		nr := []int{4, 8, 16, 32}[rng.Intn(4)]
		kcTile := 1 + rng.Intn(300)
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(4*kcTile)
		w := 1 + rng.Intn(9)
		if trial%3 == 0 && kcTile > 1 {
			k = 2*kcTile + 1 + rng.Intn(kcTile-1) // a short third step
		}
		slabKC := min(kcTile, k)
		nPanels := (n + nr - 1) / nr
		slab := make([]float32, nPanels*slabKC*nr)
		// span is the slab range slabPanel hands panel p at depth kc.
		span := func(p, kc int) (lo, hi int) {
			sub := slabPanel(slab, p, kc, slabKC, nr)
			lo = cap(slab) - cap(sub)
			return lo, lo + len(sub)
		}
		var depths []int
		for pc := 0; pc < k; pc += kcTile {
			depths = append(depths, min(kcTile, k-pc))
		}
		stripes := make([][2]int, w) // unused tail entries stay {0, 0}
		par.Chunks(nPanels, w, func(chunk, lo, hi int) { stripes[chunk] = [2]int{lo, hi} })
		what := func() string {
			return fmt.Sprintf("n=%d k=%d KC=%d NR=%d workers=%d", n, k, kcTile, nr, w)
		}
		// prevHi is the highest float any earlier stripe writes at any step.
		prevHi := 0
		for _, st := range stripes {
			plo, phi := st[0], st[1]
			if phi == 0 {
				break // fewer stripes than workers
			}
			stripeHi := 0
			for _, kc := range depths {
				for p := plo; p < phi; p++ {
					lo, hi := span(p, kc)
					if lo < prevHi {
						t.Fatalf("%s: panel %d at depth %d starts at %d, inside an earlier stripe's writes (to %d)",
							what(), p, kc, lo, prevHi)
					}
					if p+1 < phi {
						if next, _ := span(p+1, kc); next < hi {
							t.Fatalf("%s: panels %d and %d overlap at depth %d", what(), p, p+1, kc)
						}
					}
					stripeHi = max(stripeHi, hi)
				}
			}
			prevHi = stripeHi
		}
	}
}

// TestPackAMatchesReference holds packA — the eight-, six- and twelve-row
// paths for full panels of row-major A, the scalar loops for partial
// panels and the transposed layout — to the definition dst[panel][kk*mr+i]
// = A[ic+panel*mr+i][pc+kk] byte for byte, and each full-panel path to the
// scalar loop on the same panel. The source values include negative zero
// and a NaN payload, so a path that rounds or canonicalizes differs.
func TestPackAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nan := math.Float32frombits(0x7fc01234)
	bits := func(v []float32) []uint32 {
		out := make([]uint32, len(v))
		for i, f := range v {
			out[i] = math.Float32bits(f)
		}
		return out
	}
	fullPanel := map[int]func(panel, a []float32, lda, kc int){8: packA8, 6: packA6, 12: packA12}
	for trial := 0; trial < 1200; trial++ {
		mr := []int{8, 6, 12}[trial/400]
		aTrans := trial%2 == 1
		rows := 1 + trial%mr         // rows of the last panel: 1–mr
		mc := mr*(trial/16%3) + rows // 0–2 full panels, then the partial one
		kc := 1 + rng.Intn(37)
		ic, pc := rng.Intn(5), rng.Intn(5) // odd offsets into A
		m, k := ic+mc+rng.Intn(3), pc+kc+rng.Intn(3)
		lda := k
		if aTrans {
			lda = m
		}
		lda += rng.Intn(3) // odd leading dimensions
		a := make([]float32, lda*max(m, k))
		for i := range a {
			a[i] = rng.Float32()*2 - 1
		}
		a[rng.Intn(len(a))] = float32(math.Copysign(0, -1))
		a[rng.Intn(len(a))] = nan
		at := func(i, kk int) float32 { // A[i][kk] in either layout
			if aTrans {
				return a[kk*lda+i]
			}
			return a[i*lda+kk]
		}
		nPanels := (mc + mr - 1) / mr
		want := make([]float32, nPanels*kc*mr)
		for panel := 0; panel < nPanels; panel++ {
			for kk := 0; kk < kc; kk++ {
				for i := 0; i < mr; i++ {
					if r := panel*mr + i; r < mc {
						want[panel*kc*mr+kk*mr+i] = at(ic+r, pc+kk)
					}
				}
			}
		}
		got := make([]float32, len(want))
		for i := range got {
			got[i] = -7 // every float must be written
		}
		packA(got, a, lda, ic, mc, pc, kc, mr, aTrans)
		if !slices.Equal(bits(got), bits(want)) {
			t.Fatalf("trial %d (mr=%d mc=%d kc=%d ic=%d pc=%d lda=%d aTrans=%v): packA differs from the definition",
				trial, mr, mc, kc, ic, pc, lda, aTrans)
		}
		if aTrans || mc < mr {
			continue
		}
		scalar, full := make([]float32, kc*mr), make([]float32, kc*mr)
		packARows(scalar, a[ic*lda+pc:], lda, kc, mr, mr)
		fullPanel[mr](full, a[ic*lda+pc:], lda, kc)
		if !slices.Equal(bits(full), bits(scalar)) {
			t.Fatalf("trial %d (kc=%d ic=%d pc=%d lda=%d): packA%d differs from the scalar loop", trial, kc, ic, pc, lda, mr)
		}
	}
}

// TestShardedGEMMAllocsIndependentOfK pins the striped path's allocation
// cost: a sharded GEMM is one fork/join whatever its depth, so it
// allocates the same at K = KC and K = 8·KC — par.Chunks's wait group
// and its one goroutine's closure, no more — with the packing buffers
// and the stripe method value pooled.
func TestShardedGEMMAllocsIndependentOfK(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	tile := DefaultTile
	m, n := 40, 20*tile.NR+5
	allocs := make(map[int]float64)
	for _, k := range []int{tile.KC, 8 * tile.KC} {
		rng := rand.New(rand.NewSource(int64(k)))
		a, b, c := randTensor(rng, m, k), randTensor(rng, k, n), New(m, n)
		run := func() { blockedGEMM(c.Data, a.Data, b.Data, m, n, k, false, false, tile, 2) }
		run() // warm the panel pools
		allocs[k] = testing.AllocsPerRun(20, run)
	}
	lo, hi := allocs[tile.KC], allocs[8*tile.KC]
	t.Logf("allocs/op: %.1f at K = KC, %.1f at K = 8·KC", lo, hi)
	if lo != hi || hi > 2 {
		t.Fatalf("sharded GEMM allocates %.1f objects/op at K = KC and %.1f at K = 8·KC, want equal and ≤ 2", lo, hi)
	}
}

// TestBlockedFullyOverwritesOutput guards the Into contract on pooled
// scratch: whatever garbage the buffer holds must be gone afterwards.
func TestBlockedFullyOverwritesOutput(t *testing.T) {
	_, bs, _ := blockedEngines()
	rng := rand.New(rand.NewSource(77))
	a := randTensor(rng, 9, 5)
	b := randTensor(rng, 5, 7)
	c, release := NewScratch(9, 7)
	defer release()
	for i := range c.Data {
		c.Data[i] = float32(math.NaN())
	}
	bs.MatMulInto(c, a, b)
	for i, v := range c.Data {
		if math.IsNaN(float64(v)) {
			t.Fatalf("element %d still NaN: output not fully overwritten", i)
		}
	}
}

// TestBlockedZeroAlloc is the packed-panel pool guard: after warm-up, a
// serial blocked GEMM (all three variants) must allocate nothing — the
// panels come from the scratch pool (GetScratch) and the micro-tile
// staging buffer lives in the pooled packed-A buffer's tail.
func TestBlockedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	_, bs, _ := blockedEngines()
	rng := rand.New(rand.NewSource(5))
	m, k, n := 33, 70, 29
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	at := randTensor(rng, k, m)
	bt := randTensor(rng, n, k)
	c := New(m, n)
	run := func() {
		bs.MatMulInto(c, a, b)
		bs.MatMulTransAInto(c, at, b)
		bs.MatMulTransBInto(c, a, bt)
	}
	run() // warm the panel pools
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state blocked GEMM allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBlockedConcurrent hammers one blocked-parallel engine from many
// goroutines; under -race this guards the shared packed-B slab (read-only
// after pack) and the panel pool handoff.
func TestBlockedConcurrent(t *testing.T) {
	naive, _, bp := blockedEngines()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 15; iter++ {
				m, k, n := 1+rng.Intn(24), 1+rng.Intn(24), 1+rng.Intn(24)
				a, b := randTensor(rng, m, k), randTensor(rng, k, n)
				got, want := New(m, n), New(m, n)
				bp.MatMulInto(got, a, b)
				naive.MatMulInto(want, a, b)
				for i := range got.Data {
					if !relClose(got.Data[i], want.Data[i], 1e-4) {
						done <- errAt(g, iter)
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type concErr struct{ g, iter int }

func errAt(g, iter int) error { return concErr{g, iter} }
func (e concErr) Error() string {
	return "blocked concurrent GEMM corrupted result"
}

// maxClose reports max|got−want| ≤ tol·max|want|, the oracle form the
// benchmark's conv check uses.
func maxClose(got, want *Tensor, tol float64) (diff, scale float64, ok bool) {
	for i, v := range want.Data {
		diff = math.Max(diff, math.Abs(float64(got.Data[i]-v)))
		scale = math.Max(scale, math.Abs(float64(v)))
	}
	return diff, scale, diff <= tol*scale && !math.IsNaN(diff)
}

// TestDefaultEngineMatchesOracleLayerShapes holds the production path — a
// default-constructed engine at the production tile, sharded and not — to
// the naive Serial oracle within 1e-3 of the largest output on the GEMMs
// the networks actually run: the five full-size AlexNet conv layers
// (ungrouped, batch 1), the AlexNet-S conv and FC shapes, and the edge
// cases blocking has to pad for.
func TestDefaultEngineMatchesOracleLayerShapes(t *testing.T) {
	shapes := []struct {
		name    string
		m, k, n int
		large   bool
	}{
		{"AlexNet_conv1", 96, 363, 3025, true},
		{"AlexNet_conv2", 256, 2400, 729, true},
		{"AlexNet_conv3", 384, 2304, 169, true},
		{"AlexNet_conv4", 384, 3456, 169, true},
		{"AlexNet_conv5", 256, 3456, 169, true},
		{"AlexNetS_conv1", 12, 27, 256, false},
		{"AlexNetS_conv2", 24, 108, 64, false},
		{"AlexNetS_conv3", 32, 216, 16, false},
		{"AlexNetS_conv4", 32, 288, 16, false},
		{"AlexNetS_conv5", 24, 288, 16, false},
		{"AlexNetS_fc6_b32", 32, 96, 48, false},
		{"AlexNetS_fc8_b32", 32, 48, 8, false},
		{"M1", 1, 300, 77, false},
		{"N1", 77, 300, 1, false},
		{"K_lt_KC", 40, DefaultTile.KC - 1, 50, false},
		{"N_not_multiple_of_NR", 40, 2*DefaultTile.KC + 3, 8*7 + 3, false},
	}
	oracle := NewEngine(Serial, 1)
	def, sharded := NewEngine(Blocked, 1), NewEngine(Blocked, 4)
	sharded.SetParallelThreshold(0)
	for si, s := range shapes {
		if s.large && (testing.Short() || raceEnabled) {
			continue // seconds of naive oracle; the race detector learns nothing new from them
		}
		rng := rand.New(rand.NewSource(int64(700 + si)))
		a, b := randTensor(rng, s.m, s.k), randTensor(rng, s.k, s.n)
		at, bt := randTensor(rng, s.k, s.m), randTensor(rng, s.n, s.k)
		for _, v := range []struct {
			name string
			run  func(e *Engine) *Tensor
		}{
			{"MatMul", func(e *Engine) *Tensor { return e.MatMul(a, b) }},
			{"MatMulTransA", func(e *Engine) *Tensor { return e.MatMulTransA(at, b) }},
			{"MatMulTransB", func(e *Engine) *Tensor { return e.MatMulTransB(a, bt) }},
		} {
			want, got := v.run(oracle), v.run(def)
			if diff, scale, ok := maxClose(got, want, 1e-3); !ok {
				t.Fatalf("%s %s: max difference %g exceeds 1e-3 of max magnitude %g", s.name, v.name, diff, scale)
			}
			if !bitIdentical(v.run(sharded), got) {
				t.Fatalf("%s %s: 4-worker result diverges bit-for-bit from unsharded", s.name, v.name)
			}
		}
	}
}

// FuzzBlockedVsNaive fuzzes the blocked backend at the small boundary
// tile: any shape must agree with naive within tolerance and be
// bit-for-bit identical between blocked-serial and blocked-parallel.
// The committed corpus under testdata/fuzz pins the tile-boundary seeds.
func FuzzBlockedVsNaive(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), int64(1))
	f.Add(uint8(testTile.MR+1), uint8(testTile.KC+1), uint8(testTile.NR+1), int64(2))
	f.Add(uint8(testTile.MC+1), uint8(testTile.KC-1), uint8(1), int64(3))
	f.Add(uint8(0), uint8(1), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, seed int64) {
		m, k, n := int(m8)%40, int(k8)%40, int(n8)%40
		checkBlockedShape(t, m, k, n, seed, testTile)
	})
}

// probeFused is what fmaProbe returns from a fused multiply-add.
const probeFused = 1 + 0x1p-23

// fmaProbe runs the rounding-class probe GEMM at a tile: 2×2, K = 2, with
// C[0][0] = 1·1 + a·b for a = (2²³+2896)·2⁻³⁵ and b = (2²³−2895)·2⁻³⁵, so
// a·b = 2⁻²⁴ + 4688·2⁻⁷⁰. A kernel that rounds the product first gets
// 1 + 2⁻²⁴, a tie that rounds to even, 1; a fused multiply-add keeps the
// tail and returns probeFused. The nn package's training golden keys its
// header on the same probe.
func fmaProbe(tile TileConfig) float32 {
	a, b := probeOperands()
	c := make([]float32, 4)
	blockedGEMM(c, []float32{1, a, 0, 0}, []float32{1, 0, b, 0}, 2, 2, 2, false, false, tile, 1)
	return c[0]
}

func probeOperands() (a, b float32) {
	return float32(math.Ldexp(1<<23+2896, -35)), float32(math.Ldexp(1<<23-2895, -35))
}

// TestFMAProbeSeparatesClasses checks the probe can tell the classes
// apart — a product rounded before the add returns 1, one fused returns
// probeFused — and records why the portable kernel is not math.FMA: in
// float64 the fused sum 1 + 2⁻²⁴ + 4688·2⁻⁷⁰ rounds to 1 + 2⁻²⁴, and the
// conversion to float32 then rounds that tie to 1. Rounding twice lands
// in neither class.
func TestFMAProbeSeparatesClasses(t *testing.T) {
	a, b := probeOperands()
	if p := float32(a * b); 1+p != 1 {
		t.Fatalf("rounded product: 1 + a·b = %g, want 1", 1+p)
	}
	if exact := float64(a) * float64(b); exact <= 0x1p-24 { // 48 bits: exact in float64
		t.Fatalf("a·b = %g does not exceed 2⁻²⁴: a fused sum would tie", exact)
	}
	if got := float32(math.FMA(float64(a), float64(b), 1)); got != 1 {
		t.Fatalf("float32(math.FMA(a, b, 1)) = %g, want the double-rounded 1", got)
	}
}
