package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if got := x.Len(); got != 24 {
		t.Fatalf("Len = %d, want 24", got)
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestShapeIsCopied(t *testing.T) {
	x := New(2, 3)
	s := x.Shape()
	s[0] = 99
	if x.Dim(0) != 2 {
		t.Fatalf("mutating Shape() result changed the tensor: Dim(0)=%d", x.Dim(0))
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At(1,2,3) = %v, want 7.5", got)
	}
	// Row-major offset: 1*12 + 2*4 + 3 = 23.
	if got := x.Data[23]; got != 7.5 {
		t.Fatalf("Data[23] = %v, want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("At out of range did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestAtPanicsWrongRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("At with wrong rank did not panic")
		}
	}()
	New(2, 2).At(1)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 10
	if x.At(0, 0) != 10 {
		t.Fatalf("FromSlice did not wrap the slice")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("FromSlice mismatch did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeView(t *testing.T) {
	x := New(2, 6)
	x.Set(5, 1, 4)
	y := x.Reshape(3, 4)
	if y.At(2, 2) != 5 { // flat index 10 in both
		t.Fatalf("reshape view does not share data")
	}
	y.Set(9, 0, 0)
	if x.At(0, 0) != 9 {
		t.Fatalf("reshape is not a view")
	}
}

func TestReshapeVolumeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Reshape with bad volume did not panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := New(3)
	x.Fill(2)
	y := x.Clone()
	y.Set(8, 0)
	if x.At(0) != 2 {
		t.Fatalf("Clone shares storage")
	}
}

func TestScaleAddScaled(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.Scale(2)
	x.AddScaled(y, 0.5)
	want := []float32{7, 14, 21}
	for i, w := range want {
		if x.Data[i] != w {
			t.Fatalf("Data[%d] = %v, want %v", i, x.Data[i], w)
		}
	}
}

func TestSumArgmaxMaxAbs(t *testing.T) {
	x := FromSlice([]float32{-5, 2, 4, -1}, 4)
	if got := x.Sum(); got != 0 {
		t.Fatalf("Sum = %v, want 0", got)
	}
	if got := x.MaxAbs(); got != 5 {
		t.Fatalf("MaxAbs = %v, want 5", got)
	}
}

func TestScalarTensor(t *testing.T) {
	x := New()
	if x.Len() != 1 || x.Rank() != 0 {
		t.Fatalf("scalar tensor: Len=%d Rank=%d", x.Len(), x.Rank())
	}
	x.Set(3)
	if x.At() != 3 {
		t.Fatalf("scalar At = %v, want 3", x.At())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("C[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.Float32()
	}
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	c := MatMul(a, id)
	if !AllClose(a, c, 1e-6) {
		t.Fatalf("A·I != A")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MatMul with mismatched inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// naiveMatMul is an obviously-correct reference for cross-checking the
// streaming implementations.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += float64(a.At(i, kk)) * float64(b.At(kk, j))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !AllClose(got, want, 1e-4) {
			t.Fatalf("trial %d (%dx%dx%d): MatMul diverges from naive", trial, m, k, n)
		}
	}
}

// TestMatMulNaiveMatchesOneColumnLoop holds the four-column naive kernel
// to the one-column loop it replaced, bit for bit: every C element starts
// at zero and takes A[i][k]·B[k][j] in ascending k, skipping zero A
// values, whatever N mod 4 is.
func TestMatMulNaiveMatchesOneColumnLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(9), 1+rng.Intn(13)
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		a.Data[rng.Intn(len(a.Data))] = 0
		got := make([]float32, m*n)
		for i := range got {
			got[i] = -7 // every element must be written
		}
		matMulNaive(got, a.Data, b.Data, m, k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float32
				for kk := 0; kk < k; kk++ {
					if av := a.Data[i*k+kk]; av != 0 {
						want += av * b.Data[kk*n+j]
					}
				}
				if got[i*n+j] != want {
					t.Fatalf("trial %d (%dx%dx%d): C[%d][%d] = %g, want %g", trial, m, k, n, i, j, got[i*n+j], want)
				}
			}
		}
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randTensor(rng, k, m) // stored transposed
		b := randTensor(rng, k, n)
		got := MatMulTransA(a, b)
		at := New(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				at.Set(a.At(i, j), j, i)
			}
		}
		want := MatMul(at, b)
		if !AllClose(got, want, 1e-4) {
			t.Fatalf("trial %d: MatMulTransA diverges", trial)
		}
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randTensor(rng, m, k)
		b := randTensor(rng, n, k) // stored transposed
		got := MatMulTransB(a, b)
		bt := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bt.Set(b.At(i, j), j, i)
			}
		}
		want := MatMul(a, bt)
		if !AllClose(got, want, 1e-4) {
			t.Fatalf("trial %d: MatMulTransB diverges", trial)
		}
	}
}

// Property: (A·B)·C == A·(B·C) within float tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b, c := randTensor(r, m, k), randTensor(r, k, n), randTensor(r, n, p)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return AllClose(left, right, 1e-3)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: AllClose is reflexive and Clone preserves equality.
func TestClonePreservesAllCloseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randTensor(r, 1+r.Intn(5), 1+r.Intn(5))
		return AllClose(x, x.Clone(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum is linear under Scale.
func TestSumScaleLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randTensor(r, 1+r.Intn(20))
		s0 := x.Sum()
		x.Scale(3)
		return math.Abs(x.Sum()-3*s0) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
