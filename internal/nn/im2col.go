package nn

import "pcnn/internal/tensor"

// im2colInto lowers one image's convolution input to the column matrix Dm
// of Fig 2: each output position becomes a column holding the Sf²·Nc input
// values its filter window covers. x is a C×H×W plane slice; the image's
// nPos columns are written at the start of each of dst's (c·kh·kw) rows,
// which are ld apart — ld = nPos for a matrix of one image, or the folded
// width when dst is one image's column block of a batch-wide matrix. The
// block is fully overwritten, so callers may hand it pooled scratch
// (tensor.GetScratch). All ho·wo positions are lowered, in row-major
// order — for training; inference lowers inside tensor.MatMulIm2colInto.
func im2colInto(dst []float32, ld int, x []float32, c, h, w, k, stride, pad int, ho, wo int) {
	nPos := ho * wo
	row := 0
	for ci := 0; ci < c; ci++ {
		plane := x[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				out := dst[row*ld:][:nPos]
				if stride == 1 {
					// Output row oy reads input row iy shifted by kx-pad:
					// columns [lo, hi) come from a contiguous copy, the rest
					// is padding. No per-element bounds work.
					shift := kx - pad
					lo, hi := 0, wo
					if -shift > lo {
						lo = -shift
					}
					if w-shift < hi {
						hi = w - shift
					}
					if hi < lo {
						hi = lo
					}
					for oy := 0; oy < ho; oy++ {
						orow := out[oy*wo : (oy+1)*wo]
						iy := oy - pad + ky
						if iy < 0 || iy >= h {
							clear(orow)
							continue
						}
						clear(orow[:lo])
						copy(orow[lo:hi], plane[iy*w+shift+lo:iy*w+shift+hi])
						clear(orow[hi:])
					}
				} else {
					for oy := 0; oy < ho; oy++ {
						orow := out[oy*wo : (oy+1)*wo]
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							clear(orow)
							continue
						}
						irow := plane[iy*w : (iy+1)*w]
						ix := kx - pad
						for ox := range orow {
							if ix >= 0 && ix < w {
								orow[ox] = irow[ix]
							} else {
								orow[ox] = 0
							}
							ix += stride
						}
					}
				}
				row++
			}
		}
	}
}

// col2im scatters column-matrix gradients back to an input-plane gradient,
// the adjoint of im2col. cols is (c·k·k) × (ho·wo); the result accumulates
// into dx (length c·h·w).
func col2im(dx []float32, cols *tensor.Tensor, c, h, w, k, stride, pad int) {
	ho := (h+2*pad-k)/stride + 1
	wo := (w+2*pad-k)/stride + 1
	nPos := ho * wo
	row := 0
	for ci := 0; ci < c; ci++ {
		plane := dx[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := cols.Data[row*nPos : (row+1)*nPos]
				for p := 0; p < nPos; p++ {
					oy, ox := p/wo, p%wo
					iy := oy*stride - pad + ky
					ix := ox*stride - pad + kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						plane[iy*w+ix] += src[p]
					}
				}
				row++
			}
		}
	}
}
