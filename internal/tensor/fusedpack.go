package tensor

import "fmt"

// The fused im2col→pack-B path (Cappuccino's lowering): a convolution's
// column matrix is a pure index transform of the input image, so instead
// of materializing it (the largest scratch buffer in conv forward) the
// blocked backend packs its KC×NR panels straight from the C×H×W plane.
// The packed bytes are identical to running im2col and then packB, so the
// fused GEMM is bit-for-bit the same as the two-step one — the fuzz suite
// in fusedpack_test.go pins that equivalence.

// Im2colGeom describes the implicit column matrix of a convolution input
// of N images stored back to back: entry (row, col) with
// row = (ci·K+ky)·K+kx and col = (s·HO+oy)·WO+ox holds
// x[s][ci][oy·Stride−Pad+ky][ox·Stride−Pad+kx], or 0 where the filter
// window hangs over the padding. Folding the batch into the column axis
// makes a batch of N one GEMM with N·HO·WO columns — the paper's batching
// argument (a bigger result matrix, higher Util) applied to the host.
// The matrix is Rows()×Cols() and is never stored.
type Im2colGeom struct {
	C, H, W     int // input plane: channels × height × width
	K           int // square filter size
	Stride, Pad int
	HO, WO      int // output spatial extent
	N           int // images folded into the column axis; 0 means 1
}

// Rows returns the column matrix's row count C·K·K (the GEMM K dimension).
func (g Im2colGeom) Rows() int { return g.C * g.K * g.K }

// Images returns the number of images the column axis spans.
func (g Im2colGeom) Images() int { return max(g.N, 1) }

// Cols returns the column matrix's column count N·HO·WO (the GEMM N
// dimension).
func (g Im2colGeom) Cols() int { return g.Images() * g.HO * g.WO }

// Validate reports whether the geometry is internally consistent: positive
// dims and an output extent that matches the conv arithmetic.
func (g Im2colGeom) Validate() error {
	if g.C < 1 || g.H < 1 || g.W < 1 || g.K < 1 || g.Stride < 1 || g.Pad < 0 || g.N < 0 {
		return fmt.Errorf("tensor: invalid im2col geometry %+v", g)
	}
	ho := (g.H+2*g.Pad-g.K)/g.Stride + 1
	wo := (g.W+2*g.Pad-g.K)/g.Stride + 1
	if ho != g.HO || wo != g.WO || g.HO < 1 || g.WO < 1 {
		return fmt.Errorf("tensor: im2col geometry %+v: output extent %dx%d, want %dx%d", g, g.HO, g.WO, ho, wo)
	}
	return nil
}

// padImages returns the geometry's images with their padding made real —
// each channel plane copied into the middle of a zeroed
// (H+2·Pad)×(W+2·Pad) plane in pooled scratch — and the equivalent
// unpadded geometry. With the fringe in memory, lowering a column-matrix
// row is nothing but copies: no per-position bounds arithmetic, which on
// small planes (a 4×4 output row is four values) otherwise costs more
// than the GEMM it feeds. The caller releases the buffer with PutScratch.
func padImages(x []float32, g Im2colGeom) ([]float32, Im2colGeom) {
	p := g
	p.H, p.W, p.Pad = g.H+2*g.Pad, g.W+2*g.Pad, 0
	planes := g.Images() * g.C
	xp := GetScratch(planes * p.H * p.W)
	clear(xp)
	for pl := 0; pl < planes; pl++ {
		src := x[pl*g.H*g.W:][:g.H*g.W]
		dst := xp[pl*p.H*p.W+g.Pad*p.W+g.Pad:]
		for y := 0; y < g.H; y++ {
			copy(dst[y*p.W:][:g.W], src[y*g.W:])
		}
	}
	return xp, p
}

// packBIm2col packs NR-column panels [plo, phi) of rows [pc, pc+kc) of
// the implicit column matrix straight from the images x — the fused
// twin of packBRange. Layout and zero-padding match packBRange exactly,
// so downstream micro-kernels cannot tell the two apart. Columns run on
// across image boundaries, so a panel may straddle two images. g must be
// unpadded (see padImages): every packed value is then a plain read, and
// the columns of a panel that share an output row are one run of input.
func packBIm2col(dst, x []float32, g Im2colGeom, pc, kc, nr, plo, phi int) {
	n := g.Cols()
	kk2 := g.K * g.K
	wo, st := g.WO, g.Stride
	img, rowStep := g.C*g.H*g.W, st*g.W
	// The first packed column's image and output coordinate; every row of
	// the slab starts its sweep there, and (oy, ox) then advances
	// incrementally across panels instead of being re-derived per panel.
	s0 := plo * nr / (g.HO * wo)
	oy0 := (plo*nr - s0*g.HO*wo) / wo
	ox0 := plo*nr - (s0*g.HO+oy0)*wo
	src0 := s0*img + oy0*rowStep + ox0*st
	for kk := 0; kk < kc; kk++ {
		row := pc + kk
		ci := row / kk2
		ky := (row - ci*kk2) / g.K
		kx := row - ci*kk2 - ky*g.K
		src := src0 + ci*g.H*g.W + ky*g.W + kx // input under output (oy, ox)
		oy, ox := oy0, ox0
		off := plo*kc*nr + kk*nr // dst offset of this row in panel plo
		for p := plo; p < phi; p++ {
			cols := min(nr, n-p*nr)
			drow := dst[off : off+nr]
			off += kc * nr
			if st == 1 && cols == nr && ox+nr <= wo {
				// The whole panel lies inside one output row: one run.
				copy(drow, x[src:src+nr])
				ox += nr
				src += nr
				if ox == wo {
					ox = 0
					src += rowStep - wo
					if oy++; oy == g.HO {
						oy = 0
						src += img - g.HO*rowStep
					}
				}
				continue
			}
			for j := 0; j < cols; {
				run := min(wo-ox, cols-j)
				switch {
				case st != 1:
					for t, o := j, src; t < j+run; t, o = t+1, o+st {
						drow[t] = x[o]
					}
				case run == 4:
					// A 4-wide output row (the scaled networks' deep
					// layers) is one 16-byte move; copy() is a call.
					*(*[4]float32)(drow[j:]) = *(*[4]float32)(x[src:])
				default:
					copy(drow[j:j+run], x[src:])
				}
				j += run
				ox += run
				src += run * st
				if ox == wo {
					ox = 0
					src += rowStep - wo*st
					if oy++; oy == g.HO {
						oy = 0
						src += img - g.HO*rowStep
					}
				}
			}
			clear(drow[cols:])
		}
	}
}

// im2colGeomInto materializes the dense column matrix (Rows()×Cols(),
// row-major) — the slow reference the fused path is tested against, and
// the fallback MatMulIm2colInto uses on the serial oracle and at reduced
// precision.
func im2colGeomInto(dst, x []float32, g Im2colGeom) {
	n := g.Cols()
	plane, img := g.H*g.W, g.C*g.H*g.W
	row := 0
	for ci := 0; ci < g.C; ci++ {
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				out := dst[row*n : (row+1)*n]
				p := 0
				for s := 0; s < g.Images(); s++ {
					src := x[s*img+ci*plane:][:plane]
					for oy := 0; oy < g.HO; oy++ {
						iy := oy*g.Stride - g.Pad + ky
						for ox := 0; ox < g.WO; ox++ {
							ix := ox*g.Stride - g.Pad + kx
							if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
								out[p] = src[iy*g.W+ix]
							} else {
								out[p] = 0
							}
							p++
						}
					}
				}
				row++
			}
		}
	}
}

// MatMulIm2colInto computes C = A·B where B is the implicit im2col column
// matrix of the g.Images() images in x under geometry g — Rows()×Cols(),
// never materialized by the blocked kernels, whose KC×NR panels are packed
// straight from the images. The serial oracle materializes B into pooled
// scratch and runs the ordinary GEMM, so the call is valid (if not faster)
// on every backend. A is M×Rows(); C must be M×Cols(), image s owning
// columns [s·HO·WO, (s+1)·HO·WO). Each output element's K order does not
// depend on the batch, so a folded call is bit-identical, column for
// column, to one call per image.
func (e *Engine) MatMulIm2colInto(c, a *Tensor, x []float32, g Im2colGeom) {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	if a.Rank() != 2 || a.Dim(1) != g.Rows() {
		panic(fmt.Sprintf("tensor: MatMulIm2colInto A shape %v, want [M %d]", a.Shape(), g.Rows()))
	}
	if want := g.Images() * g.C * g.H * g.W; len(x) < want {
		panic(fmt.Sprintf("tensor: MatMulIm2colInto input has %d values, want %d", len(x), want))
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
	cols := GetScratch(k * n)
	defer PutScratch(cols)
	im2colGeomInto(cols, x, g)
	e.matMulInto("MatMulIm2colInto", c, a, FromSlice(cols, k, n))
}
