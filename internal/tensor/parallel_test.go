package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pcnn/internal/par"
)

// Engines under test: a blocked one with four workers and a zero
// threshold, so every GEMM shards even on a single-CPU host, and the
// unsharded blocked reference.
func testEngines() (sharded, unsharded *Engine) {
	sharded = NewEngine(Blocked, 4)
	sharded.SetParallelThreshold(0)
	return sharded, NewEngine(Blocked, 1)
}

// bitIdentical reports whether two tensors are exactly equal, bit for bit
// (no tolerance — sharding must reproduce unsharded results exactly, since
// every C tile sees the same micro-kernel calls in the same order).
func bitIdentical(a, b *Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// checkAllVariantsEquivalent runs the blocked GEMM sharded and unsharded
// for one (m,k,n) shape at the production tile and fails unless they agree
// bit for bit, whatever the worker count.
func checkAllVariantsEquivalent(t *testing.T, m, k, n int, seed int64) {
	t.Helper()
	blk, ref := testEngines()
	rng := rand.New(rand.NewSource(seed))

	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	at := randTensor(rng, k, m) // stored transposed for TransA
	bt := randTensor(rng, n, k) // stored transposed for TransB

	same := func(op string, run func(e *Engine) *Tensor) {
		t.Helper()
		want := run(ref)
		if !bitIdentical(run(blk), want) {
			t.Fatalf("%s %dx%dx%d: sharded / unsharded blocked are not bit-identical", op, m, k, n)
		}
	}
	same("MatMul", func(e *Engine) *Tensor { return e.MatMul(a, b) })
	same("MatMulTransA", func(e *Engine) *Tensor { return e.MatMulTransA(at, b) })
	same("MatMulTransB", func(e *Engine) *Tensor { return e.MatMulTransB(a, bt) })

	// Into forms over pooled scratch must agree too (and fully overwrite:
	// scratch arrives with arbitrary contents).
	into := func(fill float32, run func(e *Engine, c *Tensor)) func(e *Engine) *Tensor {
		return func(e *Engine) *Tensor {
			c, release := NewScratch(m, n)
			defer release()
			for i := range c.Data {
				c.Data[i] = fill
			}
			run(e, c)
			return c.Clone()
		}
	}
	same("MatMulInto", into(999, func(e *Engine, c *Tensor) { e.MatMulInto(c, a, b) }))
	same("MatMulTransAInto", into(-999, func(e *Engine, c *Tensor) { e.MatMulTransAInto(c, at, b) }))
	same("MatMulTransBInto", into(7, func(e *Engine, c *Tensor) { e.MatMulTransBInto(c, a, bt) }))
}

// TestAutoMatchesBlockedRandomShapes is the property-style equivalence
// sweep: ragged sizes around micro-tile boundaries, plus many random shapes.
func TestAutoMatchesBlockedRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 33, 64}
	for trial := 0; trial < 60; trial++ {
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		checkAllVariantsEquivalent(t, m, k, n, int64(trial))
	}
}

// TestAutoMatchesBlockedDegenerateShapes pins the edge cases: empty M,
// N or K, and single-row outputs that shard along N only.
func TestAutoMatchesBlockedDegenerateShapes(t *testing.T) {
	shapes := [][3]int{
		{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {0, 0, 0},
		{1, 5, 7}, {1, 1, 1}, {2, 1, 1}, {5, 1, 9},
	}
	for i, s := range shapes {
		checkAllVariantsEquivalent(t, s[0], s[1], s[2], int64(100+i))
	}
}

// TestAutoMatchesBlockedVGGShape exercises the acceptance-criterion
// geometry (a VGG conv lowered to GEMM) once at full size.
func TestAutoMatchesBlockedVGGShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large GEMM in -short mode")
	}
	checkAllVariantsEquivalent(t, 64, 512, 256, 7)
}

// TestAutoThresholdBitIdentical checks the threshold path: a default
// engine must agree with the unsharded blocked kernels both below and
// above its FLOP threshold.
func TestAutoThresholdBitIdentical(t *testing.T) {
	auto := NewEngine(Blocked, 4)
	auto.SetParallelThreshold(1000)
	ref := NewEngine(Blocked, 1)
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][3]int{{2, 3, 4}, {32, 16, 32}} {
		a := randTensor(rng, shape[0], shape[1])
		b := randTensor(rng, shape[1], shape[2])
		if !bitIdentical(auto.MatMul(a, b), ref.MatMul(a, b)) {
			t.Fatalf("auto engine diverges at shape %v", shape)
		}
	}
}

// TestEngineKnobs covers the backend/threshold accessors and the
// serial-vs-sharded decision.
func TestEngineKnobs(t *testing.T) {
	e := NewEngine(Blocked, 4)
	if e.Workers() != 4 {
		t.Fatalf("Workers = %d, want 4", e.Workers())
	}
	if e.ParallelThreshold() != DefaultParallelThreshold {
		t.Fatalf("ParallelThreshold = %d, want the default %d", e.ParallelThreshold(), DefaultParallelThreshold)
	}
	e.SetParallelThreshold(GEMMFlops(64, 64, 64) + 1)
	if e.chunks(64, 64, 64) != 1 {
		t.Fatal("a GEMM below the threshold shards")
	}
	e.SetParallelThreshold(GEMMFlops(64, 64, 64))
	if e.chunks(64, 64, 64) != 4 {
		t.Fatal("a GEMM at the threshold does not shard")
	}
	if e.chunks(1, 64*64, 64) != 4 {
		t.Fatal("a single-row GEMM cannot shard along N")
	}
	ser := NewEngine(Serial, 4)
	ser.SetParallelThreshold(0)
	if ser.chunks(64, 64, 64) != 1 {
		t.Fatal("the serial oracle shards")
	}
	if NewEngine(Blocked, 1).chunks(512, 512, 512) != 1 {
		t.Fatal("a one-worker engine shards")
	}
}

// TestDefaultEngineFollowsGOMAXPROCS: the default engine's worker count is
// the current GOMAXPROCS, not the one it first ran under, so raising
// GOMAXPROCS after a GEMM lets the next GEMM above the threshold shard.
func TestDefaultEngineFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := Default()
	const m, n, k = 128, 512, 512 // one KC slice clears the default threshold
	rng := rand.New(rand.NewSource(13))
	a, b := randTensor(rng, m, k), randTensor(rng, k, n)
	want := e.MatMul(a, b)
	runtime.GOMAXPROCS(2)
	if w := e.Workers(); w != 2 {
		t.Fatalf("Default().Workers() = %d after GOMAXPROCS(2), want 2", w)
	}
	if c := e.chunks(m, n, min(k, DefaultTile.KC)); c != 2 {
		t.Fatalf("a %dx%dx%d GEMM splits into %d stripes at GOMAXPROCS 2, want 2", m, n, k, c)
	}
	if !bitIdentical(e.MatMul(a, b), want) {
		t.Fatal("the sharded GEMM diverges from the one run at GOMAXPROCS 1")
	}
}

// TestShardingLeavesNoGoroutines: sharded GEMMs on engines with their own
// worker counts, and par.Chunks fan-outs at those counts, start no
// goroutine that outlives the call, so building engines leaks nothing.
func TestShardingLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(14))
	a, b := randTensor(rng, 16, 24), randTensor(rng, 24, 40)
	for i := 0; i < 10; i++ {
		e := NewEngine(Blocked, 4)
		e.SetParallelThreshold(0)
		e.MatMul(a, b)
		par.Chunks(8, e.Workers(), func(_, _, _ int) {})
	}
	// A chunk's goroutine has signalled the wait group just before it
	// exits, so give the scheduler a moment to retire it.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sharded calls returned, %d before", runtime.NumGoroutine(), baseline)
		}
	}
}

// mustPanic runs f and returns the recovered panic message, failing the
// test when f does not panic.
func mustPanic(t *testing.T, what string, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
	}()
	if msg == "" {
		t.Fatalf("%s did not panic", what)
	}
	return msg
}

// TestShapeCheckConsistency is the latent-bug regression: all variants now
// reject non-rank-2 operands, mismatched inner dimensions and wrong output
// shapes with uniformly phrased messages naming the operation.
func TestShapeCheckConsistency(t *testing.T) {
	a23, b34 := New(2, 3), New(3, 4)
	r3 := New(3) // rank-1

	cases := []struct {
		op   string
		want string
		f    func()
	}{
		{"MatMul", "inner dimensions differ", func() { MatMul(New(2, 3), New(4, 2)) }},
		{"MatMulTransA", "inner dimensions differ", func() { MatMulTransA(New(3, 2), New(4, 2)) }},
		{"MatMulTransB", "inner dimensions differ", func() { MatMulTransB(New(2, 3), New(4, 2)) }},
		{"MatMul", "requires rank-2 operands", func() { MatMul(r3, b34) }},
		{"MatMulTransA", "requires rank-2 operands", func() { MatMulTransA(r3, b34) }},
		{"MatMulTransB", "requires rank-2 operands", func() { MatMulTransB(a23, r3) }},
		{"MatMulInto", "output shape", func() { MatMulInto(New(4, 2), a23, b34) }},
		{"MatMulTransAInto", "output shape", func() { MatMulTransAInto(New(2, 2), New(3, 2), b34) }},
		{"MatMulTransBInto", "output shape", func() { MatMulTransBInto(New(2, 2), a23, New(4, 3)) }},
		{"MatMulInto", "output shape", func() { MatMulInto(r3, a23, b34) }},
	}
	for _, tc := range cases {
		msg := mustPanic(t, tc.op, tc.f)
		if !strings.Contains(msg, "tensor: "+tc.op+" ") {
			t.Errorf("%s panic does not name the op: %q", tc.op, msg)
		}
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s panic %q does not contain %q", tc.op, msg, tc.want)
		}
	}
}

// TestIntoFormsWriteCallerBuffer verifies the Into forms reuse the given
// buffer rather than allocating, the point of the conv-backward fix.
func TestIntoFormsWriteCallerBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randTensor(rng, 3, 6)    // outC × planeOut
	cols := randTensor(rng, 4, 6) // fanIn × planeOut
	dW := New(3, 4)
	data := dW.Data
	MatMulTransBInto(dW, g, cols)
	want := MatMulTransB(g, cols)
	if &data[0] != &dW.Data[0] {
		t.Fatalf("MatMulTransBInto replaced the output buffer")
	}
	if !bitIdentical(dW, want) {
		t.Fatalf("MatMulTransBInto result differs from MatMulTransB")
	}
	w := randTensor(rng, 3, 4)
	dcols := New(4, 6)
	MatMulTransAInto(dcols, w, g)
	if !bitIdentical(dcols, MatMulTransA(w, g)) {
		t.Fatalf("MatMulTransAInto result differs from MatMulTransA")
	}
}

// TestConcurrentParallelGEMM stress-tests concurrent sharding: many
// goroutines issuing sharded GEMMs at once must neither race nor corrupt
// each other's outputs. Run under -race in CI.
func TestConcurrentParallelGEMM(t *testing.T) {
	par, ser := testEngines()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 20; iter++ {
				m, k, n := 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16)
				a, b := randTensor(rng, m, k), randTensor(rng, k, n)
				got := par.MatMul(a, b)
				if !bitIdentical(got, ser.MatMul(a, b)) {
					errs <- fmt.Sprintf("goroutine %d iter %d: corrupted result", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestScratchRoundTrip covers the pooled allocator: size classes, reuse,
// and the too-large escape hatch.
func TestScratchRoundTrip(t *testing.T) {
	s := GetScratch(100)
	if len(s) != 100 {
		t.Fatalf("GetScratch(100) len = %d", len(s))
	}
	if cap(s) != 128 {
		t.Fatalf("GetScratch(100) cap = %d, want 128 (size class)", cap(s))
	}
	PutScratch(s)
	s2 := GetScratch(120)
	if cap(s2) != 128 {
		t.Fatalf("reused scratch cap = %d", cap(s2))
	}
	PutScratch(s2)

	if got := GetScratch(0); got != nil {
		t.Fatalf("GetScratch(0) = %v, want nil", got)
	}
	PutScratch(nil)                // must not panic
	PutScratch(make([]float32, 3)) // below pooled range: dropped

	tt, release := NewScratch(4, 5)
	if tt.Dim(0) != 4 || tt.Dim(1) != 5 || len(tt.Data) != 20 {
		t.Fatalf("NewScratch shape %v len %d", tt.Shape(), len(tt.Data))
	}
	release()
}

// TestScratchConcurrent hammers the allocator from many goroutines; run
// under -race this guards the sync.Pool usage and catches aliasing between
// a released buffer and its next owner.
func TestScratchConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				n := 1 + (g*31+iter*7)%500
				s := GetScratch(n)
				for i := range s {
					s[i] = float32(g)
				}
				for i := range s {
					if s[i] != float32(g) {
						t.Errorf("scratch aliased while owned")
						return
					}
				}
				PutScratch(s)
			}
		}(g)
	}
	wg.Wait()
}

// FuzzMatMulShapes fuzzes shape handling: any small (m,k,n) must give
// bit-identical default, blocked and unsharded results for all three
// variants, with no panics on degenerate dimensions.
func FuzzMatMulShapes(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), int64(1))
	f.Add(uint8(0), uint8(1), uint8(2), int64(2))
	f.Add(uint8(1), uint8(0), uint8(0), int64(3))
	f.Add(uint8(17), uint8(3), uint8(9), int64(4))
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, seed int64) {
		m, k, n := int(m8)%48, int(k8)%48, int(n8)%48
		checkAllVariantsEquivalent(t, m, k, n, seed)
	})
}
