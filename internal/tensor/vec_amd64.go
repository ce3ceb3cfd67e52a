//go:build amd64

package tensor

// The AVX2 elementwise kernels in vec_amd64.s, behind the same CPUID gate
// as the 6×16 micro-kernel (useAVX2FMA; they use AVX2 but no FMA). Each
// covers the first n&^3 elements of a row — 8-wide steps, then one 4-wide
// step — and the wrappers below report that count, leaving the rest to
// the portable twin.

//go:noescape
func reluAVX2(dst, src *float32, n int)

//go:noescape
func maxRowsAVX2(dst, src *float32, rows, w, size, stride int)

//go:noescape
func pairMaxAVX2(dst, src *float32, n int)

//go:noescape
func acrossAVX2(dst, src *float32, rows, n, w int, lo, hi *int32, wa, wb *float32)

//go:noescape
func downAVX2(dst, src *float32, rows, w int, lo, hi *int32, wa, wb *float32)

func reluSIMD(dst, src []float32) int {
	if !useAVX2FMA || len(src) < 4 {
		return 0
	}
	reluAVX2(&dst[0], &src[0], len(src))
	return len(src) &^ 3
}

func maxRowsSIMD(dst, src []float32, rows, w, size, stride int) int {
	if !useAVX2FMA || w < 4 {
		return 0
	}
	maxRowsAVX2(&dst[0], &src[0], rows, w, size, stride)
	return w &^ 3
}

func pairMaxSIMD(dst, src []float32) int {
	if !useAVX2FMA || len(dst) < 4 {
		return 0
	}
	pairMaxAVX2(&dst[0], &src[0], len(dst))
	return len(dst) &^ 3
}

func acrossSIMD(dst, src []float32, rows, n int, p *Lerp) int {
	w := len(p.lo)
	if !useAVX2FMA || w < 4 || rows == 0 {
		return 0
	}
	acrossAVX2(&dst[0], &src[0], rows, n, w, &p.lo[0], &p.hi[0], &p.wa[0], &p.wb[0])
	return w &^ 3
}

func downSIMD(dst, src []float32, w int, p *Lerp) int {
	if !useAVX2FMA || w < 4 || len(p.lo) == 0 {
		return 0
	}
	downAVX2(&dst[0], &src[0], len(p.lo), w, &p.lo[0], &p.hi[0], &p.wa[0], &p.wb[0])
	return w &^ 3
}
