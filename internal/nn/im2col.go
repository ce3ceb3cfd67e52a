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
// order; im2colSampled is the perforated form.
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
							zero32(orow)
							continue
						}
						zero32(orow[:lo])
						copy(orow[lo:hi], plane[iy*w+shift+lo:iy*w+shift+hi])
						zero32(orow[hi:])
					}
				} else {
					for oy := 0; oy < ho; oy++ {
						orow := out[oy*wo : (oy+1)*wo]
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							zero32(orow)
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

// im2colSampled is the perforated form for a chunk of ns images stored
// back to back in x: one column per image per computed position — the
// cross product of the mask's kept rows ys and columns xs, row-major — so
// the GEMM's N dimension shrinks to ns·Wo′·Ho′. dst holds (c·k·k) rows of
// ns·len(ys)·len(xs) values, image s owning columns [s·nPos, (s+1)·nPos),
// and is fully overwritten. Which input value a (row, position) pair reads
// is the same for every image, so the index arithmetic runs once per pair
// and the inner loop strides across the chunk.
func im2colSampled(dst, x []float32, ns, c, h, w, k, stride, pad int, xs, ys []int) {
	nPos := len(xs) * len(ys)
	ld, img := ns*nPos, c*h*w
	row := 0
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				out := dst[row*ld:][:ld]
				p := 0
				for _, oy := range ys {
					iy := oy*stride - pad + ky
					for _, ox := range xs {
						ix := ox*stride - pad + kx
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							for j := p; j < ld; j += nPos {
								out[j] = 0
							}
						} else {
							src := x[ci*h*w+iy*w+ix:]
							for j, o := p, 0; j < ld; j, o = j+nPos, o+img {
								out[j] = src[o]
							}
						}
						p++
					}
				}
				row++
			}
		}
	}
}

func zero32(s []float32) {
	for i := range s {
		s[i] = 0
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
