package tensor

import (
	"fmt"
	"sync"
)

// The blocked backend is a BLIS/Goto-style cache-blocked GEMM, the host
// counterpart of the tiled SGEMM the paper lowers every layer to.
// A is packed into MC×KC row blocks laid out as MR-row panels, B into
// KC-deep panels of NR columns, and an MR×NR register-accumulating
// micro-kernel sweeps the packed panels. The loop nest is
//
//	for pc over K in KC steps:          (sequential — fixes accumulation order)
//	    pack B[pc:pc+KC, :] into NR panels   (panels sharded across the pool)
//	    for (ic, jc) work items:        (sharded across the worker pool)
//	        pack A[ic:ic+MC, pc:pc+KC] into MR panels (per-worker buffer)
//	        for jr over the item's NR panels:
//	            for ir over MC in MR steps:
//	                C[ic+ir.., jr..] ?= micro-kernel(Ap, Bp)
//
// The parallel work unit is a flattened (MC block × NR panel group) item,
// not just an MC block: conv-lowered GEMMs have small M (the filter
// count) and huge N (the output plane), so sharding the jc dimension is
// what actually spreads them across cores. Because the K loop is
// outermost and runs sequentially (a pool barrier per KC step), every
// output micro-tile receives its KC-panel contributions in ascending pc
// order — and each C tile is computed by exactly one micro-kernel call
// per KC step whatever the item grouping — which is what makes
// blocked-serial and blocked-parallel bit-for-bit identical regardless of
// worker count.
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
// buffer is sized by them.
const (
	maxMR = 8
	maxNR = 8
)

// DefaultTile is the tile every blocked GEMM of this build runs: one per
// ISA, fixed at init, with nothing at run time to override it. Chosen by
// sweeping cache/register blockings on the recorded BENCH_gemm layer
// shapes: MC×KC = 128×256 (128 KiB of packed A) sits in L2 on both hosts
// probed, 8×4 is the widest tile whose scalar accumulators stay in
// registers, and hosts with a SIMD 8×8 kernel switch to that tile at init
// (kern8x8_amd64.go: AVX2+FMA; kern8x8_arm64.go: NEON). The one measured
// improvement still open, KC = 512, re-rounds training and is recorded in
// ROADMAP.md beside the Fig 16 recalibration it has to land with.
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
// the scalar 8×4 (the blocked path of every build without a SIMD 8×8) and
// the 8×8 the amd64/arm64 assembly kernels implement.
func kernelFor(mr, nr int) microKernel {
	switch {
	case mr == 8 && nr == 4:
		return kern8x4
	case mr == 8 && nr == 8:
		return kern8x8
	}
	return nil
}

// panelBuf is a pooled packing buffer. Pooling the struct pointer (not the
// slice) keeps Put allocation-free, so steady-state blocked GEMMs do zero
// allocations — guarded by TestBlockedZeroAlloc.
type panelBuf struct{ data []float32 }

// Packed-A blocks (MC×KC, ≤128 KB at the default tile, one per worker
// chunk) and packed-B slabs (KC×N, megabytes for a conv-lowered GEMM, one
// per GEMM) come from separate pools: getPanel grows a too-small buffer to
// the request, so in one shared pool every A buffer would converge on the
// largest B slab ever seen.
var packAPool, packBPool sync.Pool

func getPanel(pool *sync.Pool, n int) *panelBuf {
	pb, _ := pool.Get().(*panelBuf)
	if pb == nil {
		pb = &panelBuf{}
	}
	if cap(pb.data) < n {
		pb.data = make([]float32, n)
	}
	pb.data = pb.data[:n]
	return pb
}

// packA packs the mc×kc block of A starting at (ic, pc) into MR-row
// panels: dst[panel][kk*mr+i] = A[ic+panel*mr+i][pc+kk], zero-padding
// rows past mc so edge micro-tiles can run the full-width kernel.
// aTrans selects the K×M storage layout of the TransA variant.
func packA(dst, a []float32, lda, ic, mc, pc, kc, mr int, aTrans bool) {
	for ir := 0; ir < mc; ir += mr {
		rows := mr
		if mc-ir < rows {
			rows = mc - ir
		}
		panel := dst[(ir/mr)*kc*mr : (ir/mr+1)*kc*mr]
		if aTrans {
			// A stored K×M: row kk of the block is contiguous in memory.
			for kk := 0; kk < kc; kk++ {
				drow := panel[kk*mr : kk*mr+mr]
				copy(drow, a[(pc+kk)*lda+ic+ir:][:rows])
				for i := rows; i < mr; i++ {
					drow[i] = 0
				}
			}
		} else {
			for i := 0; i < rows; i++ {
				src := a[(ic+ir+i)*lda+pc:][:kc]
				for kk, v := range src {
					panel[kk*mr+i] = v
				}
			}
			for i := rows; i < mr; i++ {
				for kk := 0; kk < kc; kk++ {
					panel[kk*mr+i] = 0
				}
			}
		}
	}
}

// packB packs the kc×n slab of B starting at row pc into NR-column
// panels: dst[panel][kk*nr+j] = B[pc+kk][panel*nr+j], zero-padding
// columns past n. bTrans selects the N×K storage layout of the TransB
// variant.
func packB(dst, b []float32, ldb, pc, kc, n, nr int, bTrans bool) {
	packBRange(dst, b, ldb, pc, kc, n, nr, bTrans, 0, (n+nr-1)/nr)
}

// packBRange packs NR-column panels [plo, phi) of the kc×n slab — the
// restriction packB is built from, and the unit the parallel path shards
// across the pool (panel writes are disjoint, and the packed bytes are a
// pure function of B, so sharding cannot change them).
func packBRange(dst, b []float32, ldb, pc, kc, n, nr int, bTrans bool, plo, phi int) {
	for p := plo; p < phi; p++ {
		jr := p * nr
		cols := nr
		if n-jr < cols {
			cols = n - jr
		}
		panel := dst[p*kc*nr : (p+1)*kc*nr]
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

// blockedArgs carries one blocked GEMM through the K-panel loop so the
// per-work-item worker body needs no closure captures beyond one pointer.
// Headers are pooled (argsPool) because the parallel path binds a method
// value to the pointer, which would otherwise heap-allocate the struct on
// every GEMM — including serial ones.
type blockedArgs struct {
	c, a, b, bp []float32
	lda, ldb    int
	ldc         int
	m, n        int
	pc, kc      int
	first       bool
	aTrans      bool
	bTrans      bool
	tile        TileConfig
	kern        microKernel
	apPerBlk    int        // packed-A floats needed per MC block
	nGroups     int        // NR-panel groups per MC block (work-item minor axis)
	groupCols   int        // C columns per panel group (multiple of NR)
	fused       bool       // pack B straight from an image plane
	geom        Im2colGeom // fused-path geometry (b holds the image)
}

// packPanels packs NR panels [lo, hi) of the current KC×N slab of B —
// from the stored matrix, or straight from the image plane on the fused
// im2col path. It is the unit the parallel path hands to parallelFor so
// packing overlaps across workers before the compute sweep.
func (g *blockedArgs) packPanels(lo, hi int) {
	if g.fused {
		packBIm2col(g.bp, g.b, g.geom, g.pc, g.kc, g.tile.NR, lo, hi)
		return
	}
	packBRange(g.bp, g.b, g.ldb, g.pc, g.kc, g.n, g.tile.NR, g.bTrans, lo, hi)
}

// runItems packs and multiplies flattened (MC block × NR panel group) work
// items [lo, hi); item = block*nGroups + group. Each invocation owns one
// pooled packed-A buffer (with the edge-tile staging area at its tail) and
// packs a block's A panels lazily on first entering the block, so a chunk
// spanning several blocks packs each once and parallel chunks that split a
// block pay at most one redundant pack per chunk. The packed-B slab is
// shared read-only.
func (g *blockedArgs) runItems(lo, hi int) {
	mc, mr, nr := g.tile.MC, g.tile.MR, g.tile.NR
	apb := getPanel(&packAPool, g.apPerBlk+maxMR*maxNR)
	ap, stage := apb.data[:g.apPerBlk], apb.data[g.apPerBlk:]
	lastBlk := -1
	mcur := 0
	for item := lo; item < hi; item++ {
		blk := item / g.nGroups
		ic := blk * mc
		if blk != lastBlk {
			mcur = mc
			if g.m-ic < mcur {
				mcur = g.m - ic
			}
			packA(ap, g.a, g.lda, ic, mcur, g.pc, g.kc, mr, g.aTrans)
			lastBlk = blk
		}
		jlo := (item % g.nGroups) * g.groupCols
		jhi := jlo + g.groupCols
		if jhi > g.n {
			jhi = g.n
		}
		for jr := jlo; jr < jhi; jr += nr {
			ncur := nr
			if g.n-jr < ncur {
				ncur = g.n - jr
			}
			bpPanel := g.bp[(jr/nr)*g.kc*nr:]
			for ir := 0; ir < mcur; ir += mr {
				mrcur := mr
				if mcur-ir < mrcur {
					mrcur = mcur - ir
				}
				apPanel := ap[(ir/mr)*g.kc*mr:]
				cOff := (ic+ir)*g.ldc + jr
				if mrcur == mr && ncur == nr {
					g.kern(g.kc, apPanel, bpPanel, g.c[cOff:], g.ldc, g.first)
					continue
				}
				// Edge tile: the panels are zero-padded to full MR×NR groups,
				// so the register kernel runs at full width into the staging
				// tile and only the valid corner reaches C — the same
				// accumulation tree as a full tile (sum a k-panel from zero,
				// then one store/add into C), at the same speed.
				g.kern(g.kc, apPanel, bpPanel, stage, nr, true)
				for i := 0; i < mrcur; i++ {
					crow, srow := g.c[cOff+i*g.ldc:][:ncur], stage[i*nr:][:ncur]
					if g.first {
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
	packAPool.Put(apb)
}

// blockedGEMM runs one cache-blocked GEMM. pool may be nil (serial);
// parallel shards flattened (MC block × NR panel group) work items across
// it with a barrier per KC step, which preserves the per-tile accumulation
// order and hence bit-for-bit serial/parallel equivalence at any worker
// count. Pack-B is sharded by panel over the same pool (disjoint writes).
func blockedGEMM(c, a, b []float32, m, n, k int, aTrans, bTrans bool, t TileConfig, pool *workerPool, parallel bool) {
	blockedGEMMPack(c, a, b, m, n, k, aTrans, bTrans, false, Im2colGeom{}, t, pool, parallel)
}

// blockedGEMMIm2col is blockedGEMM with B read through the fused im2col
// packer: x holds the geometry's C×H×W images back to back and geom is
// their implicit column-matrix geometry. Identical packed bytes →
// identical results to materializing the column matrix and calling
// blockedGEMM.
func blockedGEMMIm2col(c, a, x []float32, m int, geom Im2colGeom, t TileConfig, pool *workerPool, parallel bool) {
	if geom.Pad > 0 {
		x, geom = padImages(x, geom)
		defer PutScratch(x)
	}
	blockedGEMMPack(c, a, x, m, geom.Cols(), geom.Rows(), false, false, true, geom, t, pool, parallel)
}

func blockedGEMMPack(c, a, b []float32, m, n, k int, aTrans, bTrans, fused bool, geom Im2colGeom, t TileConfig, pool *workerPool, parallel bool) {
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
	kern := kernelFor(t.MR, t.NR)

	kc0 := t.KC
	if k < kc0 {
		kc0 = k
	}
	mc0 := t.MC
	if m < mc0 {
		mc0 = m
	}
	nPanelsB := (n + t.NR - 1) / t.NR
	nPanelsA := (mc0 + t.MR - 1) / t.MR
	nBlocks := (m + t.MC - 1) / t.MC

	// Work-item grouping: conv-lowered shapes have few MC blocks (M = the
	// filter count) but hundreds of NR panels, so the panel space is split
	// into groups until the flattened item count gives every worker a few
	// items to balance on. The grouping affects scheduling only — each C
	// tile is computed by exactly one micro-kernel call per KC step either
	// way — so results are independent of the worker count.
	nGroups, groupPanels := 1, nPanelsB
	if parallel && pool != nil {
		if w := pool.workers(); w > 1 {
			want := (4*w + nBlocks - 1) / nBlocks // groups so items ≥ 4·workers
			if want > nPanelsB {
				want = nPanelsB
			}
			if want > 1 {
				groupPanels = (nPanelsB + want - 1) / want
				nGroups = (nPanelsB + groupPanels - 1) / groupPanels
			}
		}
	}
	nItems := nBlocks * nGroups

	bpb := getPanel(&packBPool, kc0*nPanelsB*t.NR)
	g, _ := argsPool.Get().(*blockedArgs)
	if g == nil {
		g = &blockedArgs{}
	}
	*g = blockedArgs{
		c: c, a: a, b: b, bp: bpb.data,
		lda: lda, ldb: ldb, ldc: n, m: m, n: n,
		aTrans: aTrans, bTrans: bTrans, tile: t, kern: kern,
		apPerBlk:  kc0 * nPanelsA * t.MR,
		nGroups:   nGroups,
		groupCols: groupPanels * t.NR,
		fused:     fused, geom: geom,
	}
	var itemsFn, packFn func(lo, hi int)
	if parallel && pool != nil && nItems > 1 {
		itemsFn = g.runItems // one binding for the whole K loop
		packFn = g.packPanels
	}
	for pc := 0; pc < k; pc += t.KC {
		g.pc = pc
		g.kc = t.KC
		if k-pc < g.kc {
			g.kc = k - pc
		}
		g.first = pc == 0
		if itemsFn != nil {
			pool.parallelFor(nPanelsB, packFn)
			pool.parallelFor(nItems, itemsFn)
		} else {
			g.packPanels(0, nPanelsB)
			g.runItems(0, nItems)
		}
	}
	*g = blockedArgs{} // drop the operand references before pooling
	argsPool.Put(g)
	packBPool.Put(bpb)
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

// kern8x8go is the portable 8×8 path: 64 scalar accumulators exceed the
// register file, so it sums one C element at a time — the identical
// accumulation tree, a k-panel from zero then one store/add into C. The
// SIMD build (kern8x8_amd64.s) replaces it wherever AVX2+FMA is available.
func kern8x8go(kc int, ap, bp, c []float32, ldc int, first bool) {
	for i := 0; i < 8; i++ {
		crow := c[i*ldc : i*ldc+8]
		for j := range crow {
			var s float32
			for kk := 0; kk < kc; kk++ {
				s += ap[kk*8+i] * bp[kk*8+j]
			}
			if first {
				crow[j] = s
			} else {
				crow[j] += s
			}
		}
	}
}
