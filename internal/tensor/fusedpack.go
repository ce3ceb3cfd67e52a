package tensor

import "fmt"

// The fused im2col→pack-B path (Cappuccino's lowering): a convolution's
// column matrix is a pure index transform of the input image, so instead
// of materializing it (the largest scratch buffer in conv forward) the
// blocked backend packs its KC×NR panels straight from the C×H×W plane —
// all of it, or a perforated layer's kept rows × columns, with one packer.
// The packed bytes are identical to running im2col and then packBRange,
// so the fused GEMM is bit-for-bit the same as the two-step one — the
// fuzz suite in fusedpack_test.go pins that equivalence.

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
	// SX, SY: a perforated layer's kept output columns and rows (Fig 11),
	// strictly ascending; the column axis then spans only their cross
	// product, row-major, per image. Both nil keeps every position — a
	// full layer is the sampled grid with everything kept.
	SX, SY []int
}

// Rows returns the column matrix's row count C·K·K (the GEMM K dimension).
func (g Im2colGeom) Rows() int { return g.C * g.K * g.K }

// Images returns the number of images the column axis spans.
func (g Im2colGeom) Images() int { return max(g.N, 1) }

// kept returns the computed grid's extent: len(SX)×len(SY), or WO×HO.
func (g Im2colGeom) kept() (kw, kh int) {
	if g.SX == nil {
		return g.WO, g.HO
	}
	return len(g.SX), len(g.SY)
}

// Cols returns the column count, N × the computed grid (the GEMM N dimension).
func (g Im2colGeom) Cols() int {
	kw, kh := g.kept()
	return g.Images() * kw * kh
}

// Validate reports whether the geometry is internally consistent: positive
// dims, an output extent that matches the conv arithmetic, sound kept lists.
func (g Im2colGeom) Validate() error {
	if g.C < 1 || g.H < 1 || g.W < 1 || g.K < 1 || g.Stride < 1 || g.Pad < 0 || g.N < 0 {
		return fmt.Errorf("tensor: invalid im2col geometry %+v", g)
	}
	ho := (g.H+2*g.Pad-g.K)/g.Stride + 1
	wo := (g.W+2*g.Pad-g.K)/g.Stride + 1
	if ho != g.HO || wo != g.WO || g.HO < 1 || g.WO < 1 {
		return fmt.Errorf("tensor: im2col geometry %+v: output extent %dx%d, want %dx%d", g, g.HO, g.WO, ho, wo)
	}
	if (g.SX != nil || g.SY != nil) && !(ascendingIn(g.SX, g.WO) && ascendingIn(g.SY, g.HO)) {
		return fmt.Errorf("tensor: im2col geometry %+v: kept columns and rows must come together, non-empty, strictly ascending, inside the output extent", g)
	}
	return nil
}

// ascendingIn: kept is non-empty and strictly ascending within [0, n).
func ascendingIn(kept []int, n int) bool {
	for i, v := range kept {
		if v < 0 || v >= n || (i > 0 && v <= kept[i-1]) {
			return false
		}
	}
	return len(kept) > 0
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
// twin of packBRange. Layout (panel p is slabPanel(dst, p, kc, slabKC,
// nr)) and zero-padding match packBRange exactly, so downstream
// micro-kernels cannot tell the two apart. Columns run on across image
// boundaries, so a panel may straddle two images. g must be
// unpadded (see padImages): a packed value is then x[base+rowoff], base
// the input offset of its column's window origin and rowoff that of its
// row's filter tap. The walk is panel-major — one rowoff table per slab,
// each panel's ≤ NR bases derived once, then the panel written front to
// back — so writes are sequential and no output coordinate is tracked per
// copied run. A panel made of 4-float input runs (half an output row, or
// a whole one on the 4-wide deep layers) moves run by run; a strided or
// perforated layer, or a panel straddling rows, gathers column by column.
func packBIm2col(dst, x []float32, g Im2colGeom, pc, kc, slabKC, nr, plo, phi int) {
	var tab [512]int // DefaultTile.KC and its planned doubling fit
	rowoff := tab[:]
	if kc > len(tab) {
		rowoff = make([]int, kc)
	}
	rowoff = rowoff[:kc]
	kk2 := g.K * g.K
	ci := pc / kk2
	ky := (pc - ci*kk2) / g.K
	kx := pc - ci*kk2 - ky*g.K
	for kk := range rowoff {
		rowoff[kk] = ci*g.H*g.W + ky*g.W + kx
		if kx++; kx == g.K {
			kx = 0
			if ky++; ky == g.K {
				ky, ci = 0, ci+1
			}
		}
	}
	n := g.Cols()
	kw, kh := g.kept()
	st, img, rowStep := g.Stride, g.C*g.H*g.W, g.Stride*g.W
	// The first packed column's image and kept-grid coordinate.
	s := plo * nr / (kw * kh)
	yi := (plo*nr - s*kw*kh) / kw
	xi := plo*nr - (s*kh+yi)*kw
	var base [maxNR]int
	for p := plo; p < phi; p++ {
		cols := min(nr, n-p*nr)
		for j := 0; j < cols; j++ {
			ox, oy := xi, yi
			if g.SX != nil {
				ox, oy = g.SX[xi], g.SY[yi]
			}
			base[j] = s*img + oy*rowStep + ox*st
			if xi++; xi == kw {
				xi = 0
				if yi++; yi == kh {
					yi, s = 0, s+1
				}
			}
		}
		panel := slabPanel(dst, p, kc, slabKC, nr)
		switch {
		case cols == nr && runsOf4(base[:nr]):
			for h := 0; h < nr; h += 4 {
				packRun4(panel[h:], x[base[h]:], rowoff, nr)
			}
		case cols == 8 && nr == 8:
			packGather8(panel, x, (*[8]int)(base[:]), rowoff, 8)
		case cols == 16 && nr == 16:
			packGather16(panel, x, &base, rowoff)
		case cols == 32 && nr == 32:
			packGather32(panel, x, &base, rowoff)
		default:
			packGather(panel, x, base[:cols], rowoff, nr)
		}
	}
}

// runsOf4 reports whether every aligned group of four offsets is
// consecutive: the panel is then 4-float runs of input.
func runsOf4(base []int) bool {
	for j, b := range base {
		if j%4 != 0 && b != base[j-1]+1 {
			return false
		}
	}
	return true
}

// The panel sweeps of packBIm2col — the hot two out of line, so each row
// loop keeps its few live values in registers. Row kk of a panel is NR
// values, read rowoff[kk] floats past each column's base.

// packRun4 moves one 4-float input run into each row of a panel.
//
//go:noinline
func packRun4(panel, src []float32, rowoff []int, nr int) {
	for kk, off := range rowoff {
		*(*[4]float32)(panel[kk*nr:]) = *(*[4]float32)(src[off:])
	}
}

// packGather8 fills eight columns of a panel of nr column by column: a
// whole 8-wide panel, or one half of a 16-wide one.
func packGather8(panel, x []float32, base *[8]int, rowoff []int, nr int) {
	b0, b1, b2, b3, b4, b5, b6, b7 := base[0], base[1], base[2], base[3], base[4], base[5], base[6], base[7]
	for kk, off := range rowoff {
		d := (*[8]float32)(panel[kk*nr:])
		d[0], d[1], d[2], d[3] = x[b0+off], x[b1+off], x[b2+off], x[b3+off]
		d[4], d[5], d[6], d[7] = x[b4+off], x[b5+off], x[b6+off], x[b7+off]
	}
}

// packGather16 fills a full 16-wide panel as two 8-column halves: one
// 16-wide row loop keeps more column bases live than there are registers.
func packGather16(panel, x []float32, base *[maxNR]int, rowoff []int) {
	packGather8(panel, x, (*[8]int)(base[:8]), rowoff, 16)
	packGather8(panel[8:], x, (*[8]int)(base[8:]), rowoff, 16)
}

// packGather32 fills a full 32-wide panel as four 8-column quarters.
func packGather32(panel, x []float32, base *[maxNR]int, rowoff []int) {
	for h := 0; h < 32; h += 8 {
		packGather8(panel[h:], x, (*[8]int)(base[h:]), rowoff, 32)
	}
}

// packGather fills any panel column by column, zeroing past the edge.
func packGather(panel, x []float32, base, rowoff []int, nr int) {
	for kk, off := range rowoff {
		drow := panel[kk*nr:][:nr]
		for j, b := range base {
			drow[j] = x[b+off]
		}
		clear(drow[len(base):])
	}
}

// im2colGeomInto materializes the dense column matrix (Rows()×Cols(),
// row-major) — the slow reference the fused path is tested against, and
// the fallback MatMulIm2colInto uses on the serial oracle and at reduced
// precision.
func im2colGeomInto(dst, x []float32, g Im2colGeom) {
	n := g.Cols()
	kw, kh := g.kept()
	plane, img := g.H*g.W, g.C*g.H*g.W
	row := 0
	for ci := 0; ci < g.C; ci++ {
		for ky := 0; ky < g.K; ky++ {
			for kx := 0; kx < g.K; kx++ {
				out := dst[row*n : (row+1)*n]
				p := 0
				for s := 0; s < g.Images(); s++ {
					src := x[s*img+ci*plane:][:plane]
					for yi := 0; yi < kh; yi++ {
						for xi := 0; xi < kw; xi++ {
							ox, oy := xi, yi
							if g.SX != nil {
								ox, oy = g.SX[xi], g.SY[yi]
							}
							iy := oy*g.Stride - g.Pad + ky
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
// columns [s·P, (s+1)·P) with P = HO·WO, or len(SX)·len(SY) under kept
// lists. Each output element's K order does not depend on the batch, so a
// folded call is bit-identical, column for column, to one call per image.
func (e *Engine) MatMulIm2colInto(c, a *Tensor, x []float32, g Im2colGeom) {
	e.matMulIm2colInto("MatMulIm2colInto", c, a, nil, x, g)
}

// MatMulIm2colPackedInto is MatMulIm2colInto with A read from its packed
// form: the blocked kernels' stripes read pa's blocks instead of packing
// A on every call, with the same result bit for bit. Where the packed path
// does not apply — the serial oracle, M = 1, reduced precision, or pa
// packed at a tile other than today's DefaultTile — it is
// MatMulIm2colInto on pa's source matrix.
func (e *Engine) MatMulIm2colPackedInto(c *Tensor, pa *PackedA, x []float32, g Im2colGeom) {
	e.matMulIm2colInto("MatMulIm2colPackedInto", c, pa.src, pa, x, g)
}

func (e *Engine) matMulIm2colInto(op string, c, a *Tensor, pa *PackedA, x []float32, g Im2colGeom) {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	if a.Rank() != 2 || a.Dim(1) != g.Rows() {
		panic(fmt.Sprintf("tensor: %s A shape %v, want [M %d]", op, a.Shape(), g.Rows()))
	}
	if want := g.Images() * g.C * g.H * g.W; len(x) < want {
		panic(fmt.Sprintf("tensor: %s input has %d values, want %d", op, len(x), want))
	}
	m, k, n := a.Dim(0), g.Rows(), g.Cols()
	requireOut(op, c, m, n)
	// Reduced precision materializes and delegates: the fused packer is
	// fp32-only, and the quantized paths need the dense operand anyway.
	if e.usesBlocked(m) && e.Precision() == FP32 {
		if pa != nil && pa.tile != DefaultTile {
			pa = nil
		}
		blockedGEMMIm2col(c.Data, a.Data, pa, x, m, g, DefaultTile, e.chunks(m, n, min(k, DefaultTile.KC)))
		return
	}
	cols := GetScratch(k * n)
	defer PutScratch(cols)
	im2colGeomInto(cols, x, g)
	e.matMulInto(op, c, a, FromSlice(cols, k, n))
}
