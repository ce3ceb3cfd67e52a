package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Engines under test: the naive serial reference, blocked forced-serial
// (1-worker private pool), and blocked forced-parallel (4-worker private
// pool, zero threshold so every GEMM shards its MC blocks).
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
// otherwise sharded across a private pool of that size.
func runBlocked(workers int, tile TileConfig, c, a, b *Tensor, m, n, k int, aTrans, bTrans bool) {
	blockedGEMM(c.Data, a.Data, b.Data, m, n, k, aTrans, bTrans, tile, newWorkerPool(workers), workers > 1)
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
// MR×NR register tile — the scalar 8×4 and the 8×8 (SIMD where the host
// has it; kern8x8_*_test.go compares it against the portable kern8x8go) —
// so every kernel's edge handling is exercised.
func TestBlockedAllMicroKernels(t *testing.T) {
	for i, mk := range [][2]int{{8, 4}, {8, 8}} {
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

// TestBlockedParallelWorkerCountInvariance pins the (MC block × NR panel
// group) sharding contract: the result must be bit-for-bit identical at
// every worker count — including the conv-lowered regime where M fits in
// one MC block and all parallelism comes from the panel-group axis, and
// the M == 1 case where only the N dimension can shard at all.
func TestBlockedParallelWorkerCountInvariance(t *testing.T) {
	shapes := [][3]int{
		{8, 40, 123}, // one MC block: panel groups are the only shard axis
		{23, 17, 61}, // several partial blocks × partial panels
		{1, 50, 90},  // M == 1: N-only parallelism
	}
	for si, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		rng := rand.New(rand.NewSource(int64(900 + si)))
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		ref := New(m, n)
		runBlocked(1, testTile, ref, a, b, m, n, k, false, false)
		for _, w := range []int{2, 3, 4, 7} {
			got := New(m, n)
			for i := range got.Data {
				got.Data[i] = -1
			}
			runBlocked(w, testTile, got, a, b, m, n, k, false, false)
			if !bitIdentical(got, ref) {
				t.Fatalf("%dx%dx%d: %d-worker blocked GEMM diverges bit-for-bit from serial", m, k, n, w)
			}
		}
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
// panels come from the pooled *panelBuf free list and the micro-tile
// staging buffer lives on the stack.
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
	def, sharded := NewEngine(Auto, 1), NewEngine(Auto, 4)
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
