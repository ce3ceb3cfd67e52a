package tensor

import "fmt"

// The three GEMM variants the CNN engine lowers to (forward, and the two
// transposed forms the backward passes need) each come as an allocating
// form and an Into form writing a caller-owned output, all with uniform
// shape checks. Execution — the blocked kernels, serial or sharded across
// the worker pool — is decided by the Engine in parallel.go; the
// package-level functions delegate to Default().

// require2D panics unless both operands are rank-2.
func require2D(op string, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v × %v", op, a.Shape(), b.Shape()))
	}
}

// requireInner panics unless the contracted dimensions agree.
func requireInner(op string, ka, kb int) {
	if ka != kb {
		panic(fmt.Sprintf("tensor: %s inner dimensions differ: %d vs %d", op, ka, kb))
	}
}

// requireOut panics unless c is a rank-2 M×N output.
func requireOut(op string, c *Tensor, m, n int) {
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d]", op, c.Shape(), m, n))
	}
}

// MatMul computes C = A·B for 2-D tensors A (M×K) and B (K×N), writing
// into a freshly allocated C (M×N). It is the compute core that im2col
// convolution and fully-connected layers lower to, mirroring how the
// paper's convolutional kernels lower to SGEMM.
func MatMul(a, b *Tensor) *Tensor { return Default().MatMul(a, b) }

// MatMulInto computes C = A·B into an existing C, which must be M×N.
func MatMulInto(c, a, b *Tensor) { Default().MatMulInto(c, a, b) }

// MatMulTransA computes C = Aᵀ·B where A is K×M and B is K×N, producing
// a freshly allocated M×N. Used by convolution and FC backward passes.
func MatMulTransA(a, b *Tensor) *Tensor { return Default().MatMulTransA(a, b) }

// MatMulTransAInto computes C = Aᵀ·B into an existing M×N output,
// letting backward passes reuse gradient buffers across steps.
func MatMulTransAInto(c, a, b *Tensor) { Default().MatMulTransAInto(c, a, b) }

// MatMulTransB computes C = A·Bᵀ where A is M×K and B is N×K, producing
// a freshly allocated M×N. Used by convolution and FC backward passes.
func MatMulTransB(a, b *Tensor) *Tensor { return Default().MatMulTransB(a, b) }

// MatMulTransBInto computes C = A·Bᵀ into an existing M×N output.
func MatMulTransBInto(c, a, b *Tensor) { Default().MatMulTransBInto(c, a, b) }

// MatMul computes C = A·B into a freshly allocated M×N tensor.
func (e *Engine) MatMul(a, b *Tensor) *Tensor {
	require2D("MatMul", a, b)
	requireInner("MatMul", a.Dim(1), b.Dim(0))
	c := New(a.Dim(0), b.Dim(1))
	e.matMulInto("MatMul", c, a, b)
	return c
}

// MatMulInto computes C = A·B into an existing M×N output.
func (e *Engine) MatMulInto(c, a, b *Tensor) { e.matMulInto("MatMulInto", c, a, b) }

func (e *Engine) matMulInto(op string, c, a, b *Tensor) {
	require2D(op, a, b)
	requireInner(op, a.Dim(1), b.Dim(0))
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	requireOut(op, c, m, n)
	// The precision axis applies to the forward product only; the
	// transposed forms below stay fp32 (they serve backward passes).
	switch e.Precision() {
	case Int8:
		e.matMulInt8(c.Data, a.Data, b.Data, m, k, n)
		return
	case FP16:
		e.matMulFP16(c, a, b, m, k, n)
		return
	}
	e.matMulFP32(c.Data, a.Data, b.Data, m, k, n)
}

// matMulFP32 is the full-precision forward product — the path every
// engine ran before the precision axis, and the core the FP16 mode
// reuses on its rounded operand copies.
func (e *Engine) matMulFP32(cd, ad, bd []float32, m, k, n int) {
	if !e.usesBlocked(m) {
		matMulNaive(cd, ad, bd, m, k, n)
		return
	}
	e.blockedInto(cd, ad, bd, m, n, k, false, false)
}

// MatMulTransA computes C = Aᵀ·B into a freshly allocated M×N tensor.
func (e *Engine) MatMulTransA(a, b *Tensor) *Tensor {
	require2D("MatMulTransA", a, b)
	requireInner("MatMulTransA", a.Dim(0), b.Dim(0))
	c := New(a.Dim(1), b.Dim(1))
	e.matMulTransAInto("MatMulTransA", c, a, b)
	return c
}

// MatMulTransAInto computes C = Aᵀ·B into an existing M×N output.
func (e *Engine) MatMulTransAInto(c, a, b *Tensor) { e.matMulTransAInto("MatMulTransAInto", c, a, b) }

func (e *Engine) matMulTransAInto(op string, c, a, b *Tensor) {
	require2D(op, a, b)
	requireInner(op, a.Dim(0), b.Dim(0))
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	requireOut(op, c, m, n)
	if !e.usesBlocked(m) {
		matMulTransANaive(c.Data, a.Data, b.Data, m, k, n)
		return
	}
	e.blockedInto(c.Data, a.Data, b.Data, m, n, k, true, false)
}

// MatMulTransB computes C = A·Bᵀ into a freshly allocated M×N tensor.
func (e *Engine) MatMulTransB(a, b *Tensor) *Tensor {
	require2D("MatMulTransB", a, b)
	requireInner("MatMulTransB", a.Dim(1), b.Dim(1))
	c := New(a.Dim(0), b.Dim(0))
	e.matMulTransBInto("MatMulTransB", c, a, b)
	return c
}

// MatMulTransBInto computes C = A·Bᵀ into an existing M×N output.
func (e *Engine) MatMulTransBInto(c, a, b *Tensor) { e.matMulTransBInto("MatMulTransBInto", c, a, b) }

func (e *Engine) matMulTransBInto(op string, c, a, b *Tensor) {
	require2D(op, a, b)
	requireInner(op, a.Dim(1), b.Dim(1))
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	requireOut(op, c, m, n)
	if !e.usesBlocked(m) {
		matMulTransBNaive(c.Data, a.Data, b.Data, m, k, n)
		return
	}
	e.blockedInto(c.Data, a.Data, b.Data, m, n, k, false, true)
}

// The naive kernels below are the Serial backend — the seed's triple loops,
// kept as the oracle the blocked kernels are tested against — and the
// matrix–vector path of every backend (usesBlocked).

// matMulNaive computes C = A·B; A is M×K, B is K×N. The loop order
// (i,k,j) streams B and C rows.
func matMulNaive(cd, ad, bd []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		crow := cd[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		arow := ad[i*k : (i+1)*k]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := bd[kk*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// matMulTransANaive computes C = Aᵀ·B; A is K×M, B is K×N.
func matMulTransANaive(cd, ad, bd []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		crow := cd[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			av := ad[kk*m+i]
			if av == 0 {
				continue
			}
			brow := bd[kk*n : (kk+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// matMulTransBNaive computes C = A·Bᵀ; A is M×K, B is N×K.
func matMulTransBNaive(cd, ad, bd []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s float32
			for kk, av := range arow {
				s += av * brow[kk]
			}
			crow[j] = s
		}
	}
}
