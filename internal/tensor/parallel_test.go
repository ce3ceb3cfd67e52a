package tensor

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// Engines under test: the default-constructed Auto engine and an explicit
// Blocked one, both with a private 4-worker pool and a zero threshold so
// every GEMM shards even on a single-CPU host, plus the unsharded blocked
// reference.
func testEngines() (auto, blocked, unsharded *Engine) {
	auto, blocked = NewEngine(Auto, 4), NewEngine(Blocked, 4)
	auto.SetParallelThreshold(0)
	blocked.SetParallelThreshold(0)
	return auto, blocked, NewEngine(Blocked, 1)
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

// checkAllVariantsEquivalent runs the three GEMM variants for one (m,k,n)
// shape at the production tile and fails unless Auto ≡ explicit Blocked ≡
// unsharded blocked bit for bit — "auto" and "blocked" are two names for
// one path, whatever the worker count.
func checkAllVariantsEquivalent(t *testing.T, m, k, n int, seed int64) {
	t.Helper()
	auto, blk, ref := testEngines()
	rng := rand.New(rand.NewSource(seed))

	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	at := randTensor(rng, k, m) // stored transposed for TransA
	bt := randTensor(rng, n, k) // stored transposed for TransB

	same := func(op string, run func(e *Engine) *Tensor) {
		t.Helper()
		want := run(ref)
		if !bitIdentical(run(auto), want) || !bitIdentical(run(blk), want) {
			t.Fatalf("%s %dx%dx%d: auto / blocked / unsharded blocked are not bit-identical", op, m, k, n)
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
	auto := NewEngine(Auto, 4)
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
	e := NewEngine(Auto, 4)
	if e.Backend() != Auto || e.Backend().Resolved() != Blocked {
		t.Fatalf("Backend = %v resolving to %v, want auto resolving to blocked", e.Backend(), e.Backend().Resolved())
	}
	if e.Workers() != 4 {
		t.Fatalf("Workers = %d, want 4", e.Workers())
	}
	if e.ParallelThreshold() != DefaultParallelThreshold {
		t.Fatalf("ParallelThreshold = %d, want the default %d", e.ParallelThreshold(), DefaultParallelThreshold)
	}
	e.SetParallelThreshold(GEMMFlops(64, 64, 64) + 1)
	if e.shouldParallel(64, 64, 64) {
		t.Fatal("a GEMM below the threshold shards")
	}
	e.SetParallelThreshold(GEMMFlops(64, 64, 64))
	if !e.shouldParallel(64, 64, 64) {
		t.Fatal("a GEMM at the threshold does not shard")
	}
	if !e.shouldParallel(1, 64*64, 64) {
		t.Fatal("a single-row GEMM cannot shard along N")
	}
	e.SetBackend(Serial)
	if e.Backend() != Serial || e.Backend().Resolved() != Serial || e.shouldParallel(64, 64, 64) {
		t.Fatalf("the serial oracle shards (backend %v)", e.Backend())
	}
	if NewEngine(Auto, 1).shouldParallel(512, 512, 512) {
		t.Fatal("a one-worker engine shards")
	}
}

func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range []Backend{Auto, Serial, Blocked} {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	// The retired row-sharded spelling gets the standard unknown-backend
	// error, like any other name the engine never had.
	for _, name := range []string{"gpu", "parallel"} {
		if _, err := ParseBackend(name); err == nil || !strings.Contains(err.Error(), "want auto, blocked or serial") {
			t.Fatalf("ParseBackend(%q) error = %v", name, err)
		}
	}
	if b, err := ParseBackend(" Blocked "); err != nil || b != Blocked {
		t.Fatalf("ParseBackend is not case/space tolerant: %v, %v", b, err)
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

// TestConcurrentParallelGEMM stress-tests the shared worker pool: many
// goroutines issuing sharded GEMMs at once must neither race nor corrupt
// each other's outputs. Run under -race in CI.
func TestConcurrentParallelGEMM(t *testing.T) {
	par, _, ser := testEngines()
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
