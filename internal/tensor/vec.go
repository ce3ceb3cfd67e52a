package tensor

import (
	"fmt"
	"math"
)

// The elementwise kernels of the inference forward's non-GEMM tail: ReLU,
// max-pooling and the perforation fill. Each runs on the host's SIMD path
// where one exists (vec_amd64.s, gated like the 6×16 micro-kernel) and
// leaves what that path does not cover — a row's last n%4 elements — to
// its portable Go twin below, which is also the whole kernel on every
// other target and the tests' reference. Every SIMD path computes the
// same float expression as its twin, so the two agree bit for bit (a
// NaN's payload aside).

// ReLU writes dst[i] = src[i] if !(src[i] < 0), else 0, for every i of
// src: negatives and -Inf clear, while -0, NaNs and positives pass through
// untouched. dst may be src.
func ReLU(dst, src []float32) {
	dst = dst[:len(src)]
	done := reluSIMD(dst, src)
	reluGo(dst[done:], src[done:])
}

// MaxRows is the vertical step of a max-pool over w-float rows: dst row k
// is the lane-wise max, with the builtin's semantics (NaN wins, +0 beats
// -0), of src rows k·stride … k·stride+size−1, for every row k of dst.
func MaxRows(dst, src []float32, w, size, stride int) {
	rows := len(dst) / w
	if rows == 0 {
		return
	}
	dst, src = dst[:rows*w], src[:((rows-1)*stride+size)*w]
	done := maxRowsSIMD(dst, src, rows, w, size, stride)
	maxRowsGo(dst, src, rows, w, size, stride, done)
}

// PairMax writes dst[i] = max(src[2i], src[2i+1]) for every i of dst: the
// horizontal step of a 2-wide, stride-2 max-pool.
func PairMax(dst, src []float32) {
	src = src[:2*len(dst)]
	done := pairMaxSIMD(dst, src)
	pairMaxGo(dst[done:], src[2*done:])
}

// Lerp is a one-dimensional linear resampling plan: output coordinate i
// blends input coordinates lo[i] ≤ hi[i] with weight f[i] toward hi[i].
// Where f[i] == 0 it copies input lo[i] exactly; otherwise it is
// (1−f)·in[lo] + f·in[hi] — two multiplies and an add, never fused, with
// 1−f rounded once — so it rounds as that scalar expression does.
type Lerp struct {
	lo, hi []int32
	wa, wb []float32 // 1−f and f
	span   int       // max(hi) + 1: the input coordinates a plan reads
}

// NewLerp builds the plan of brackets lo, hi and weights f, one per
// output coordinate. It panics unless 0 ≤ lo[i] ≤ hi[i] and 0 ≤ f[i] ≤ 1.
func NewLerp(lo, hi []int, f []float32) Lerp {
	n := len(lo)
	p := Lerp{lo: make([]int32, n), hi: make([]int32, n), wa: make([]float32, n), wb: make([]float32, n)}
	hi, f = hi[:n], f[:n]
	for i := range lo {
		if lo[i] < 0 || hi[i] < lo[i] || !(f[i] >= 0 && f[i] <= 1) {
			panic(fmt.Sprintf("tensor: Lerp coordinate %d blends %d..%d by %g", i, lo[i], hi[i], f[i]))
		}
		p.lo[i], p.hi[i] = int32(lo[i]), int32(hi[i])
		p.wa[i], p.wb[i] = 1-f[i], f[i]+0 // +0: a −0 weight is the copy too
		p.span = max(p.span, hi[i]+1)
	}
	return p
}

// Across resamples each n-float row of src into the next len(lo)-float
// row of dst, for every row of dst.
func (p *Lerp) Across(dst, src []float32, n int) {
	w := len(p.lo)
	if p.span > n {
		panic(fmt.Sprintf("tensor: Lerp reads %d floats of a %d-float row", p.span, n))
	}
	if w == 0 {
		return
	}
	rows := len(dst) / w
	dst, src = dst[:rows*w], src[:rows*n]
	done := acrossSIMD(dst, src, rows, n, p)
	acrossGo(dst, src, rows, n, p, done)
}

// Down resamples rows: dst row i (w floats) blends src rows lo[i] and
// hi[i] lane by lane, for every output coordinate i. It writes the last
// row first, so dst may be src when every row i reads only rows ≤ i — as
// upsampling does with its input rows stored from the top of dst.
func (p *Lerp) Down(dst, src []float32, w int) {
	dst, src = dst[:len(p.lo)*w], src[:p.span*w]
	done := downSIMD(dst, src, w, p)
	downGo(dst, src, w, p, done)
}

// reluGo is `if v < 0 { v = 0 }` without the branch, which on activations
// of random sign mispredicts every other element: v < 0 holds exactly
// when v's bits lie in (0x80000000, 0xFF800000] — sign set, neither -0
// nor NaN — and an arithmetic mask clears those.
func reluGo(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float32bits(v)
		neg := uint32((int64(b-0x80000001) - 0x7F800000) >> 63)
		dst[i] = math.Float32frombits(b &^ neg)
	}
}

// maxRowsGo is MaxRows on columns [x0, w) of every row.
func maxRowsGo(dst, src []float32, rows, w, size, stride, x0 int) {
	if x0 == w {
		return
	}
	for k := 0; k < rows; k++ {
		d := dst[k*w:][x0:w]
		top := src[k*stride*w:]
		copy(d, top[x0:w])
		for ky := 1; ky < size; ky++ {
			r := top[ky*w:][x0:w]
			for x, v := range r {
				d[x] = max(d[x], v)
			}
		}
	}
}

func pairMaxGo(dst, src []float32) {
	src = src[:2*len(dst)]
	for i := range dst {
		dst[i] = max(src[2*i], src[2*i+1])
	}
}

// acrossGo is Across on output columns [x0, len(p.lo)) of every row.
func acrossGo(dst, src []float32, rows, n int, p *Lerp, x0 int) {
	w := len(p.lo)
	if x0 == w {
		return
	}
	for r := 0; r < rows; r++ {
		d, s := dst[r*w:][x0:w], src[r*n:][:n]
		for x := range d {
			i := x0 + x
			v := s[p.lo[i]]
			if p.wb[i] != 0 {
				v = p.wa[i]*v + p.wb[i]*s[p.hi[i]]
			}
			d[x] = v
		}
	}
}

// downGo is Down on columns [x0, w) of every row, last row first.
func downGo(dst, src []float32, w int, p *Lerp, x0 int) {
	if x0 == w {
		return
	}
	for i := len(p.lo) - 1; i >= 0; i-- {
		d, a := dst[i*w:][x0:w], src[int(p.lo[i])*w:][x0:w]
		wb := p.wb[i]
		if wb == 0 {
			copy(d, a)
			continue
		}
		b, wa := src[int(p.hi[i])*w:][x0:w], p.wa[i]
		for x := range d {
			d[x] = wa*a[x] + wb*b[x]
		}
	}
}
