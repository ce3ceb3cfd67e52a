package tensor

import "fmt"

// The fused im2col→pack-B path (Cappuccino's lowering): a convolution's
// column matrix is a pure index transform of the input image, so instead
// of materializing it (the largest scratch buffer in conv forward) the
// blocked backend packs its KC×NR panels straight from the C×H×W plane.
// The packed bytes are identical to running im2col and then packB, so the
// fused GEMM is bit-for-bit the same as the two-step one — the fuzz suite
// in fusedpack_test.go pins that equivalence.

// Im2colGeom describes the implicit column matrix of one convolution
// input: entry (row, pos) with row = (ci·K+ky)·K+kx and pos = oy·WO+ox
// holds x[ci][oy·Stride−Pad+ky][ox·Stride−Pad+kx], or 0 where the filter
// window hangs over the padding. The matrix is Rows()×Cols() and is never
// stored.
type Im2colGeom struct {
	C, H, W     int // input plane: channels × height × width
	K           int // square filter size
	Stride, Pad int
	HO, WO      int // output spatial extent
}

// Rows returns the column matrix's row count C·K·K (the GEMM K dimension).
func (g Im2colGeom) Rows() int { return g.C * g.K * g.K }

// Cols returns the column matrix's column count HO·WO (the GEMM N
// dimension).
func (g Im2colGeom) Cols() int { return g.HO * g.WO }

// Validate reports whether the geometry is internally consistent: positive
// dims and an output extent that matches the conv arithmetic.
func (g Im2colGeom) Validate() error {
	if g.C < 1 || g.H < 1 || g.W < 1 || g.K < 1 || g.Stride < 1 || g.Pad < 0 {
		return fmt.Errorf("tensor: invalid im2col geometry %+v", g)
	}
	ho := (g.H+2*g.Pad-g.K)/g.Stride + 1
	wo := (g.W+2*g.Pad-g.K)/g.Stride + 1
	if ho != g.HO || wo != g.WO || g.HO < 1 || g.WO < 1 {
		return fmt.Errorf("tensor: im2col geometry %+v: output extent %dx%d, want %dx%d", g, g.HO, g.WO, ho, wo)
	}
	return nil
}

// packBIm2col packs NR-column panels [plo, phi) of rows [pc, pc+kc) of
// the implicit column matrix straight from the image plane x — the fused
// twin of packBRange. Layout and zero-padding match packBRange exactly,
// so downstream micro-kernels cannot tell the two apart.
func packBIm2col(dst, x []float32, g Im2colGeom, pc, kc, nr, plo, phi int) {
	n := g.Cols()
	kk2 := g.K * g.K
	// kk is the outer loop so the row decode and plane slice hoist out of
	// the panel sweep, and the output coordinate (oy, ox) advances
	// incrementally across panels instead of being re-derived per panel.
	for kk := 0; kk < kc; kk++ {
		row := pc + kk
		ci := row / kk2
		rem := row - ci*kk2
		ky := rem / g.K
		kx := rem - ky*g.K
		plane := x[ci*g.H*g.W : (ci+1)*g.H*g.W]
		off := plo*kc*nr + kk*nr // dst offset of this row in panel plo
		oy := (plo * nr) / g.WO
		ox := plo*nr - oy*g.WO
		if g.Stride == 1 {
			// Stride-1: positions sharing an output row read contiguous
			// input, so panel rows fill by segment copies with zero
			// fringes — the same trick the dense im2col path uses.
			shift := kx - g.Pad
			iy := oy - g.Pad + ky
			for p := plo; p < phi; p++ {
				jr := p * nr
				cols := nr
				if n-jr < cols {
					cols = n - jr
				}
				drow := dst[off : off+nr]
				j := 0
				for j < cols {
					run := g.WO - ox
					if run > cols-j {
						run = cols - j
					}
					seg := drow[j : j+run]
					if iy < 0 || iy >= g.H {
						for t := range seg {
							seg[t] = 0
						}
					} else {
						lo, hi := 0, run
						if -shift-ox > lo {
							lo = -shift - ox
						}
						if lo > run {
							lo = run
						}
						if g.W-shift-ox < hi {
							hi = g.W - shift - ox
						}
						if hi < lo {
							hi = lo
						}
						for t := 0; t < lo; t++ {
							seg[t] = 0
						}
						if hi > lo {
							copy(seg[lo:hi], plane[iy*g.W+ox+shift+lo:iy*g.W+ox+shift+hi])
						}
						for t := hi; t < run; t++ {
							seg[t] = 0
						}
					}
					j += run
					ox += run
					if ox == g.WO {
						ox = 0
						oy++
						iy++
					}
				}
				for ; j < nr; j++ {
					drow[j] = 0
				}
				off += kc * nr
			}
		} else {
			iy := oy*g.Stride - g.Pad + ky
			ix := ox*g.Stride - g.Pad + kx
			for p := plo; p < phi; p++ {
				jr := p * nr
				cols := nr
				if n-jr < cols {
					cols = n - jr
				}
				drow := dst[off : off+nr]
				for j := 0; j < cols; j++ {
					if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
						drow[j] = plane[iy*g.W+ix]
					} else {
						drow[j] = 0
					}
					ox++
					ix += g.Stride
					if ox == g.WO {
						ox = 0
						iy += g.Stride
						ix = kx - g.Pad
					}
				}
				for j := cols; j < nr; j++ {
					drow[j] = 0
				}
				off += kc * nr
			}
		}
	}
}

// im2colGeomInto materializes the dense column matrix (Rows()×Cols(),
// row-major) — the slow reference the fused path is tested against, and
// the fallback MatMulIm2colInto uses on the serial oracle and at reduced
// precision.
func im2colGeomInto(dst, x []float32, g Im2colGeom) {
	n := g.Cols()
	row := 0
	for ci := 0; ci < g.C; ci++ {
		plane := x[ci*g.H*g.W : (ci+1)*g.H*g.W]
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				out := dst[row*n : (row+1)*n]
				p := 0
				for oy := 0; oy < g.HO; oy++ {
					iy := oy*g.Stride - g.Pad + ky
					for ox := 0; ox < g.WO; ox++ {
						ix := ox*g.Stride - g.Pad + kx
						if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
							out[p] = plane[iy*g.W+ix]
						} else {
							out[p] = 0
						}
						p++
					}
				}
				row++
			}
		}
	}
}

// MatMulIm2colInto computes C = A·B where B is the implicit im2col column
// matrix of image plane x under geometry g — Rows()×Cols(), never
// materialized by the blocked kernels, whose KC×NR panels are packed
// straight from the image. The serial oracle materializes B into pooled
// scratch and runs the ordinary GEMM, so the call is valid (if not faster)
// on every backend. A is M×Rows(); C must be M×Cols().
func (e *Engine) MatMulIm2colInto(c, a *Tensor, x []float32, g Im2colGeom) {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	if a.Rank() != 2 || a.Dim(1) != g.Rows() {
		panic(fmt.Sprintf("tensor: MatMulIm2colInto A shape %v, want [M %d]", a.Shape(), g.Rows()))
	}
	if len(x) < g.C*g.H*g.W {
		panic(fmt.Sprintf("tensor: MatMulIm2colInto image has %d values, want %d", len(x), g.C*g.H*g.W))
	}
	m, k, n := a.Dim(0), g.Rows(), g.Cols()
	requireOut("MatMulIm2colInto", c, m, n)
	// Reduced precision materializes and delegates: the fused packer is
	// fp32-only, and the quantized paths need the dense operand anyway.
	if e.usesBlocked(m) && e.Precision() == FP32 {
		parallel := e.shouldParallel(m, n, min(k, DefaultTile.KC))
		blockedGEMMIm2col(c.Data, a.Data, x, m, g, DefaultTile, e.pool, parallel)
		return
	}
	cols, release := NewScratch(k, n)
	defer release()
	im2colGeomInto(cols.Data, x, g)
	e.matMulInto("MatMulIm2colInto", c, a, cols)
}
