package tensor

import (
	"fmt"
	"sync"

	"pcnn/internal/par"
)

// The blocked backend is a BLIS/Goto-style cache-blocked GEMM, the host
// counterpart of the tiled SGEMM the paper lowers every layer to.
// A is packed into MC×KC row blocks laid out as MR-row panels, B into
// KC-deep panels of NR columns, and an MR×NR register-accumulating
// micro-kernel sweeps the packed panels. The NR panels of B are split
// into contiguous stripes by par.Chunks — one per chunk when the GEMM is
// sharded, a single stripe on the caller when it is not — and each stripe
// runs the whole loop nest on its own:
//
//	for pc over K in KC steps:          (sequential — fixes accumulation order)
//	    pack the stripe's panels of B[pc:pc+KC, :]
//	    for ic over M in MC steps:
//	        Ap = A[ic:ic+MC, pc:pc+KC] in MR panels: the (pc, ic) block of
//	             a PackedA, or packed here into the stripe's own buffer
//	        for jr over the stripe's NR panels:
//	            for ir over MC in MR steps:
//	                C[ic+ir.., jr..] ?= micro-kernel(Ap, Bp)
//
// A conv layer's A is its weights, constant between optimizer steps, so
// the layer packs them once (PackA) and every stripe of every inference
// call reads those blocks; other GEMMs pack A per stripe per call.
//
// The stripe is a range of NR panels, not of MC blocks: conv-lowered
// GEMMs have small M (the filter count) and huge N (the output plane), so
// sharding the jc dimension is what actually spreads them across cores.
// Stripes share nothing they write — each owns its panels' C columns and
// its panels' region of the packed-B slab (see slabPanel) — so a
// sharded GEMM is one fork/join with no barrier inside the K loop: the
// caller runs the first stripe, every other stripe runs on a goroutine
// that exits when its stripe is done, and every stripe walks its K steps
// at its own pace. Every output micro-tile still receives one
// micro-kernel call per KC step, in ascending pc, on the same packed
// bytes whatever the stripe bounds, which is what makes blocked-serial and
// blocked-parallel bit-for-bit identical regardless of worker count.
// Nor do MR, NR or MC enter the rounding, only KC and whether the kernel
// fuses its multiply-add: the amd64 12×32 and 6×16 agree bit for bit, and
// nn's training golden is keyed by that rounding class, not by the tile.
// Relative to the naive kernel the accumulation *tree* differs (per-panel
// register sums are added to C once per KC step), so naive-vs-blocked
// agreement is tolerance-based, not exact.

// TileConfig is one blocked-GEMM cache/register tiling: MC×KC A blocks,
// and an MR×NR micro-kernel (MR, NR must name a built-in kernel, see
// kernelFor).
type TileConfig struct {
	MC int // A block rows (shard unit; sized for L2 residency)
	KC int // A/B block depth (sized so a KC×NR B panel stays in L1)
	MR int // micro-kernel rows held in registers
	NR int // micro-kernel columns held in registers
}

// maxMR/maxNR bound the micro-kernel register tile; the edge-tile scratch
// buffer, fused-packer column bases and kernTile's row are sized by them.
const (
	maxMR = 12
	maxNR = 32
)

// DefaultTile is the tile every blocked GEMM of this build runs: one per
// ISA level, fixed at init, with nothing at run time to override it. Chosen by
// sweeping cache/register blockings on the recorded BENCH_gemm layer
// shapes: MC×KC = 128×256 (128 KiB of packed A) sits in L2 on both hosts
// probed, 8×4 is the widest tile whose scalar accumulators stay in
// registers, and hosts with a SIMD kernel switch to its tile at init
// (kern6x16_amd64.go: AVX-512F 12×32, else AVX2+FMA 6×16, both at
// MC = 120; kern8x8_arm64.go: NEON 8×8). The one measured improvement
// still open, KC = 512, re-rounds training and is recorded in ROADMAP.md
// beside the Fig 16 recalibration it has to land with.
var DefaultTile = TileConfig{MC: 128, KC: 256, MR: 8, NR: 4}

// String renders the tile as MCxKCxMRxNR, the form the benchmark
// sub-names in BENCH_gemm.json quote.
func (t TileConfig) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", t.MC, t.KC, t.MR, t.NR)
}

// microKernel computes one MR×NR tile: C[0:MR, 0:NR] (at stride ldc)
// gets the packed-panel product, stored when first is true and
// accumulated otherwise. ap holds kc groups of MR values, bp kc groups
// of NR.
type microKernel func(kc int, ap, bp, c []float32, ldc int, first bool)

// kernelFor returns the micro-kernel for an MR×NR register tile, or nil:
// the scalar 8×4 (the blocked path of every build without a SIMD kernel),
// the 8×8 of arm64 NEON, the 6×16 of amd64 AVX2+FMA and the 12×32 of amd64
// AVX-512F. Each SIMD tile runs the portable kernTile loop where its
// assembly is absent or switched off.
func kernelFor(mr, nr int) microKernel {
	switch {
	case mr == 8 && nr == 4:
		return kern8x4
	case mr == 8 && nr == 8:
		return kern8x8
	case mr == 6 && nr == 16:
		return kern6x16
	case mr == 12 && nr == 32:
		return kern12x32
	}
	return nil
}

// packA packs the mc×kc block of A starting at (ic, pc) into MR-row
// panels: dst[panel][kk*mr+i] = A[ic+panel*mr+i][pc+kk], zero-padding
// rows past mc so edge micro-tiles can run the full-width kernel.
// aTrans selects the K×M storage layout of the TransA variant. A full
// 8-, 6- or 12-row panel of row-major A goes through packA8, packA6 or
// packA12; partial panels and the transposed layout take the scalar
// loops, which write the same bytes.
func packA(dst, a []float32, lda, ic, mc, pc, kc, mr int, aTrans bool) {
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		panel := dst[(ir/mr)*kc*mr : (ir/mr+1)*kc*mr]
		switch {
		case aTrans:
			// A stored K×M: row kk of the block is contiguous in memory.
			for kk := 0; kk < kc; kk++ {
				drow := panel[kk*mr : kk*mr+mr]
				copy(drow, a[(pc+kk)*lda+ic+ir:][:rows])
				for i := rows; i < mr; i++ {
					drow[i] = 0
				}
			}
		case rows == 8 && mr == 8:
			packA8(panel, a[(ic+ir)*lda+pc:], lda, kc)
		case rows == 6 && mr == 6:
			packA6(panel, a[(ic+ir)*lda+pc:], lda, kc)
		case rows == 12 && mr == 12:
			packA12(panel, a[(ic+ir)*lda+pc:], lda, kc)
		default:
			packARows(panel, a[(ic+ir)*lda+pc:], lda, kc, rows, mr)
		}
	}
}

// packARows is packA's scalar loop for one panel of row-major A (a starts
// at the panel's first element): each of the first rows rows scatters
// into every mr-th value of the panel, and the rows past it are zeroed.
func packARows(panel, a []float32, lda, kc, rows, mr int) {
	for i := 0; i < rows; i++ {
		for kk, v := range a[i*lda:][:kc] {
			panel[kk*mr+i] = v
		}
	}
	for i := rows; i < mr; i++ {
		for kk := 0; kk < kc; kk++ {
			panel[kk*mr+i] = 0
		}
	}
}

// packA8 packs one full eight-row panel of row-major A (a starts at the
// panel's first element): the eight row slices are taken once, then each
// kk's eight values are written as one contiguous group — the shape of
// packGather8, and the bytes of packARows.
func packA8(panel, a []float32, lda, kc int) {
	r0, r1, r2, r3 := a[:kc], a[lda:][:kc], a[2*lda:][:kc], a[3*lda:][:kc]
	r4, r5, r6, r7 := a[4*lda:][:kc], a[5*lda:][:kc], a[6*lda:][:kc], a[7*lda:][:kc]
	for kk := range r0 {
		d := (*[8]float32)(panel[kk*8:])
		d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
		d[4], d[5], d[6], d[7] = r4[kk], r5[kk], r6[kk], r7[kk]
	}
}

// packA6 is packA8 for a full six-row panel.
func packA6(panel, a []float32, lda, kc int) {
	r0, r1, r2 := a[:kc], a[lda:][:kc], a[2*lda:][:kc]
	r3, r4, r5 := a[3*lda:][:kc], a[4*lda:][:kc], a[5*lda:][:kc]
	for kk := range r0 {
		d := (*[6]float32)(panel[kk*6:])
		d[0], d[1], d[2] = r0[kk], r1[kk], r2[kk]
		d[3], d[4], d[5] = r3[kk], r4[kk], r5[kk]
	}
}

// packA12 is packA8 for a full twelve-row panel.
func packA12(panel, a []float32, lda, kc int) {
	r0, r1, r2, r3 := a[:kc], a[lda:][:kc], a[2*lda:][:kc], a[3*lda:][:kc]
	r4, r5, r6, r7 := a[4*lda:][:kc], a[5*lda:][:kc], a[6*lda:][:kc], a[7*lda:][:kc]
	r8, r9, r10, r11 := a[8*lda:][:kc], a[9*lda:][:kc], a[10*lda:][:kc], a[11*lda:][:kc]
	for kk := range r0 {
		d := (*[12]float32)(panel[kk*12:])
		d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
		d[4], d[5], d[6], d[7] = r4[kk], r5[kk], r6[kk], r7[kk]
		d[8], d[9], d[10], d[11] = r8[kk], r9[kk], r10[kk], r11[kk]
	}
}

// PackedA is a GEMM's A operand packed once at a tile: the MC×KC blocks
// of MR-row panels that runStripe would pack, back to back in the order it
// reads them (pc outer, ic inner), so a stripe reads a block where it would
// otherwise pack one. It is a snapshot: a write to the source's data makes
// it stale, and its owner must pack again (nn keys it to a weight
// generation). The blocked kernels read it only at the tile it was packed
// at; see MatMulIm2colPackedInto.
type PackedA struct {
	src  *Tensor
	tile TileConfig
	blk  int // rows of a full MC block, rounded up to whole MR panels
	mPad int // rows of one K step: every MC block so rounded
	data []float32
}

// PackA packs the M×K matrix a at DefaultTile.
func PackA(a *Tensor) *PackedA {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: PackA requires a rank-2 operand, got %v", a.Shape()))
	}
	t := DefaultTile
	m, k := a.Dim(0), a.Dim(1)
	blk := (t.MC + t.MR - 1) / t.MR * t.MR
	p := &PackedA{src: a, tile: t, blk: blk, mPad: m/t.MC*blk + (m%t.MC+t.MR-1)/t.MR*t.MR}
	p.data = make([]float32, p.mPad*k)
	for pc := 0; pc < k; pc += t.KC {
		kc := min(t.KC, k-pc)
		for ic := 0; ic < m; ic += t.MC {
			packA(p.block(pc, ic, kc), a.Data, k, ic, min(t.MC, m-ic), pc, kc, t.MR, false)
		}
	}
	return p
}

// Tile returns the tile the matrix was packed at.
func (p *PackedA) Tile() TileConfig { return p.tile }

// block returns the (pc, ic) block, kc deep: every K step before pc is a
// full KC deep, and every MC block before ic a full MC rows.
func (p *PackedA) block(pc, ic, kc int) []float32 {
	return p.data[pc*p.mPad+ic/p.tile.MC*p.blk*kc:]
}

// slabPanel is NR panel p of a packed-B slab at a K step of depth kc.
// Panels sit at a fixed stride of slabKC·nr floats, slabKC being the
// deepest step (min(KC, K)), so a stripe of panels [plo, phi) owns floats
// [plo·slabKC·nr, phi·slabKC·nr) at every K step. Stripes reach the short
// last step at different times; an offset taken at that step's depth
// would move a stripe's panels into its neighbour's region while the
// neighbour still reads it (TestStripeSlabRegionsDisjoint).
func slabPanel(bp []float32, p, kc, slabKC, nr int) []float32 {
	off := p * slabKC * nr
	return bp[off : off+kc*nr]
}

// packBRange packs NR-column panels [plo, phi) of the kc×n slab of B
// starting at row pc: slabPanel(dst, p, kc, slabKC, nr) holds
// [kk*nr+j] = B[pc+kk][p*nr+j], zero-padding columns past n. bTrans
// selects the N×K storage layout of the TransB variant. A panel range is
// the unit a stripe packs (panel writes are disjoint, and the packed
// bytes are a pure function of B, so the stripe bounds cannot change
// them).
func packBRange(dst, b []float32, ldb, pc, kc, slabKC, n, nr int, bTrans bool, plo, phi int) {
	for p := plo; p < phi; p++ {
		jr := p * nr
		cols := nr
		if n-jr < cols {
			cols = n - jr
		}
		panel := slabPanel(dst, p, kc, slabKC, nr)
		if bTrans {
			// B stored N×K: column j of the slab is contiguous in memory.
			for j := 0; j < cols; j++ {
				src := b[(jr+j)*ldb+pc:][:kc]
				for kk, v := range src {
					panel[kk*nr+j] = v
				}
			}
			if cols < nr {
				for kk := 0; kk < kc; kk++ {
					for j := cols; j < nr; j++ {
						panel[kk*nr+j] = 0
					}
				}
			}
		} else {
			for kk := 0; kk < kc; kk++ {
				drow := panel[kk*nr : kk*nr+nr]
				copy(drow, b[(pc+kk)*ldb+jr:][:cols])
				for j := cols; j < nr; j++ {
					drow[j] = 0
				}
			}
		}
	}
}

// blockedArgs carries one blocked GEMM to its stripes so the stripe body
// needs no closure captures beyond one pointer. Headers are pooled
// (argsPool), and each keeps its runStripe method value in stripe, bound
// once when the header is first made: binding it per GEMM would
// heap-allocate a closure on every sharded call.
type blockedArgs struct {
	stripe      func(chunk, plo, phi int) // g.runStripe, kept across reuse
	c, a, b, bp []float32
	pa          *PackedA // A packed at tile, or nil to pack it per stripe
	lda, ldb    int
	ldc         int
	m, n, k     int
	slabKC      int // depth of the packed-B slab: min(KC, k)
	aTrans      bool
	bTrans      bool
	tile        TileConfig
	kern        microKernel
	apPerBlk    int        // packed-A floats a stripe packs per MC block (0 when pa is set)
	fused       bool       // pack B straight from an image plane
	geom        Im2colGeom // fused-path geometry (b holds the image)
}

// packPanels packs NR panels [lo, hi) of the kc-deep slab of B at row pc
// — from the stored matrix, or straight from the image plane on the
// fused im2col path.
func (g *blockedArgs) packPanels(pc, kc, lo, hi int) {
	if g.fused {
		packBIm2col(g.bp, g.b, g.geom, pc, kc, g.slabKC, g.tile.NR, lo, hi)
		return
	}
	packBRange(g.bp, g.b, g.ldb, pc, kc, g.slabKC, g.n, g.tile.NR, g.bTrans, lo, hi)
}

// runStripe runs the whole K loop for the stripe of NR panels [plo, phi)
// (par.Chunks numbers it; the body does not need the number):
// at each KC step it packs its own panels of the B slab, then for each MC
// block reads A's block from g.pa or packs it into its scratch buffer
// (the edge-tile staging area sits at the buffer's tail, the whole buffer
// when A is prepacked) and sweeps the micro-kernel over its panels. It writes
// only its panels' columns of C and their region of the slab, so stripes
// never wait on one another.
func (g *blockedArgs) runStripe(_, plo, phi int) {
	t := g.tile
	mr, nr := t.MR, t.NR
	buf := GetScratch(g.apPerBlk + maxMR*maxNR)
	ap, stage := buf[:g.apPerBlk], buf[g.apPerBlk:]
	for pc := 0; pc < g.k; pc += t.KC {
		kc := min(t.KC, g.k-pc)
		first := pc == 0
		g.packPanels(pc, kc, plo, phi)
		for ic := 0; ic < g.m; ic += t.MC {
			mcur := min(t.MC, g.m-ic)
			if g.pa != nil {
				ap = g.pa.block(pc, ic, kc)
			} else {
				packA(ap, g.a, g.lda, ic, mcur, pc, kc, mr, g.aTrans)
			}
			for p := plo; p < phi; p++ {
				jr := p * nr
				ncur := min(nr, g.n-jr)
				bpPanel := slabPanel(g.bp, p, kc, g.slabKC, nr)
				for ir := 0; ir < mcur; ir += mr {
					mrcur := min(mr, mcur-ir)
					apPanel := ap[(ir/mr)*kc*mr:]
					cOff := (ic+ir)*g.ldc + jr
					if mrcur == mr && ncur == nr {
						g.kern(kc, apPanel, bpPanel, g.c[cOff:], g.ldc, first)
						continue
					}
					// Edge tile: the panels are zero-padded to full MR×NR
					// groups, so the register kernel runs at full width into
					// the staging tile and only the valid corner reaches C —
					// the same accumulation tree as a full tile (sum a
					// k-panel from zero, then one store/add into C), at the
					// same speed.
					g.kern(kc, apPanel, bpPanel, stage, nr, true)
					for i := 0; i < mrcur; i++ {
						crow, srow := g.c[cOff+i*g.ldc:][:ncur], stage[i*nr:][:ncur]
						if first {
							copy(crow, srow)
							continue
						}
						for j, v := range srow {
							crow[j] += v
						}
					}
				}
			}
		}
	}
	PutScratch(buf)
}

// blockedGEMM runs one cache-blocked GEMM with its NR panels split into
// at most chunks contiguous stripes, one par.Chunks fork/join, each stripe
// through the whole K loop (see runStripe); chunks ≤ 1 runs it serially on
// the caller. Every C tile gets the same micro-kernel calls in the same
// order either way, so results are bit-for-bit identical at any chunk
// count.
func blockedGEMM(c, a, b []float32, m, n, k int, aTrans, bTrans bool, t TileConfig, chunks int) {
	blockedGEMMPack(c, a, nil, b, m, n, k, aTrans, bTrans, false, Im2colGeom{}, t, chunks)
}

// blockedGEMMIm2col is blockedGEMM with B read through the fused im2col
// packer: x holds the geometry's C×H×W images back to back and geom is
// their implicit column-matrix geometry. Identical packed bytes →
// identical results to materializing the column matrix and calling
// blockedGEMM. A non-nil pa is A packed at t, read in place of a.
func blockedGEMMIm2col(c, a []float32, pa *PackedA, x []float32, m int, geom Im2colGeom, t TileConfig, chunks int) {
	if geom.Pad > 0 {
		x, geom = padImages(x, geom)
		defer PutScratch(x)
	}
	blockedGEMMPack(c, a, pa, x, m, geom.Cols(), geom.Rows(), false, false, true, geom, t, chunks)
}

func blockedGEMMPack(c, a []float32, pa *PackedA, b []float32, m, n, k int, aTrans, bTrans, fused bool, geom Im2colGeom, t TileConfig, chunks int) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		for i := range c[:m*n] {
			c[i] = 0
		}
		return
	}
	lda, ldb := k, n
	if aTrans {
		lda = m
	}
	if bTrans {
		ldb = k
	}
	slabKC := min(t.KC, k)
	nPanelsB := (n + t.NR - 1) / t.NR
	apPerBlk := 0
	if pa == nil {
		apPerBlk = slabKC * ((min(t.MC, m) + t.MR - 1) / t.MR) * t.MR
	}

	bp := GetScratch(nPanelsB * slabKC * t.NR)
	g, _ := argsPool.Get().(*blockedArgs)
	if g == nil {
		g = &blockedArgs{}
		g.stripe = g.runStripe
	}
	*g = blockedArgs{
		stripe: g.stripe, c: c, a: a, b: b, bp: bp, pa: pa,
		lda: lda, ldb: ldb, ldc: n, m: m, n: n, k: k, slabKC: slabKC,
		aTrans: aTrans, bTrans: bTrans, tile: t, kern: kernelFor(t.MR, t.NR),
		apPerBlk: apPerBlk,
		fused:    fused, geom: geom,
	}
	par.Chunks(nPanelsB, chunks, g.stripe)
	*g = blockedArgs{stripe: g.stripe} // drop the operand references before pooling
	argsPool.Put(g)
	PutScratch(bp)
}

var argsPool sync.Pool

// The register micro-kernels. Each accumulates an MR×NR tile over the kc
// packed groups in ascending k order, then stores (first) or adds
// (otherwise) into C — one memory pass per KC panel instead of the naive
// kernel's load+store per FMA, which is where the speedup comes from.

func kern8x4(kc int, ap, bp, c []float32, ldc int, first bool) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	var c40, c41, c42, c43 float32
	var c50, c51, c52, c53 float32
	var c60, c61, c62, c63 float32
	var c70, c71, c72, c73 float32
	ap = ap[: 8*kc : 8*kc]
	bp = bp[: 4*kc : 4*kc]
	for len(ap) >= 8 && len(bp) >= 4 {
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		a := ap[0]
		c00 += a * b0
		c01 += a * b1
		c02 += a * b2
		c03 += a * b3
		a = ap[1]
		c10 += a * b0
		c11 += a * b1
		c12 += a * b2
		c13 += a * b3
		a = ap[2]
		c20 += a * b0
		c21 += a * b1
		c22 += a * b2
		c23 += a * b3
		a = ap[3]
		c30 += a * b0
		c31 += a * b1
		c32 += a * b2
		c33 += a * b3
		a = ap[4]
		c40 += a * b0
		c41 += a * b1
		c42 += a * b2
		c43 += a * b3
		a = ap[5]
		c50 += a * b0
		c51 += a * b1
		c52 += a * b2
		c53 += a * b3
		a = ap[6]
		c60 += a * b0
		c61 += a * b1
		c62 += a * b2
		c63 += a * b3
		a = ap[7]
		c70 += a * b0
		c71 += a * b1
		c72 += a * b2
		c73 += a * b3
		ap = ap[8:]
		bp = bp[4:]
	}
	r0 := c[0*ldc : 0*ldc+4]
	r1 := c[1*ldc : 1*ldc+4]
	r2 := c[2*ldc : 2*ldc+4]
	r3 := c[3*ldc : 3*ldc+4]
	r4 := c[4*ldc : 4*ldc+4]
	r5 := c[5*ldc : 5*ldc+4]
	r6 := c[6*ldc : 6*ldc+4]
	r7 := c[7*ldc : 7*ldc+4]
	if first {
		r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
		r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
		r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
		r4[0], r4[1], r4[2], r4[3] = c40, c41, c42, c43
		r5[0], r5[1], r5[2], r5[3] = c50, c51, c52, c53
		r6[0], r6[1], r6[2], r6[3] = c60, c61, c62, c63
		r7[0], r7[1], r7[2], r7[3] = c70, c71, c72, c73
		return
	}
	r0[0] += c00
	r0[1] += c01
	r0[2] += c02
	r0[3] += c03
	r1[0] += c10
	r1[1] += c11
	r1[2] += c12
	r1[3] += c13
	r2[0] += c20
	r2[1] += c21
	r2[2] += c22
	r2[3] += c23
	r3[0] += c30
	r3[1] += c31
	r3[2] += c32
	r3[3] += c33
	r4[0] += c40
	r4[1] += c41
	r4[2] += c42
	r4[3] += c43
	r5[0] += c50
	r5[1] += c51
	r5[2] += c52
	r5[3] += c53
	r6[0] += c60
	r6[1] += c61
	r6[2] += c62
	r6[3] += c63
	r7[0] += c70
	r7[1] += c71
	r7[2] += c72
	r7[3] += c73
}

// kernTile is the portable path of the SIMD-sized tiles (8×8, 6×16,
// 12×32), whose accumulators exceed the register file: one C row at a
// time, k outer over a row of NR accumulators — the identical tree, each
// element a k-panel from zero in ascending k then one store/add into C.
// The assembly kernels replace it
// wherever the host has them.
func kernTile(mr, nr, kc int, ap, bp, c []float32, ldc int, first bool) {
	var row [maxNR]float32
	for i := 0; i < mr; i++ {
		acc := row[:nr]
		clear(acc)
		for kk := 0; kk < kc; kk++ {
			a := ap[kk*mr+i]
			for j, b := range bp[kk*nr : kk*nr+nr] {
				acc[j] += a * b
			}
		}
		crow := c[i*ldc : i*ldc+nr]
		if first {
			copy(crow, acc)
			continue
		}
		for j, v := range acc {
			crow[j] += v
		}
	}
}
