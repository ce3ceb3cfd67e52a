package nn

import (
	"fmt"
	"math"

	"pcnn/internal/tensor"
)

// MaxPool is an executable max-pooling layer.
type MaxPool struct {
	name   string
	size   int
	stride int

	lastArgmax []int // flat input index chosen per output element
	lastShape  []int // input shape for Backward
}

// NewMaxPool creates a max-pooling layer with a square window.
func NewMaxPool(name string, size, stride int) *MaxPool {
	if size <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: pool %s: invalid size/stride %d/%d", name, size, stride))
	}
	return &MaxPool{name: name, size: size, stride: stride}
}

// Name implements Layer.
func (p *MaxPool) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool) Params() []*Param { return nil }

// outDims returns the pooled extent of an h×w plane.
func (p *MaxPool) outDims(h, w int) (ho, wo int) {
	ho = (h-p.size)/p.stride + 1
	wo = (w-p.size)/p.stride + 1
	if ho <= 0 || wo <= 0 {
		panic(fmt.Sprintf("nn: pool %s: window %d exceeds input %dx%d", p.name, p.size, h, w))
	}
	return ho, wo
}

// infer implements Layer: window maxima only, no argmax bookkeeping, one
// input row folded into the output row at a time. The builtin max keeps
// the loop free of the data-dependent branch that, on activations of
// random sign, mispredicts every other element (2.2× on AlexNet-S POOL1);
// unlike the training loop's `v > best` it propagates a NaN in the window
// instead of skipping it.
func (p *MaxPool) infer(x act, ctx inferCtx) act {
	ho, wo := p.outDims(x.h, x.w)
	out := ctx.alloc(x.n, x.c, ho, wo)
	ninf := float32(math.Inf(-1))
	for pl := 0; pl < x.n*x.c; pl++ {
		in := x.data[pl*x.h*x.w:][:x.h*x.w]
		o := out.data[pl*ho*wo:][:ho*wo]
		for oy := 0; oy < ho; oy++ {
			orow := o[oy*wo:][:wo]
			for ox := range orow {
				orow[ox] = ninf
			}
			for ky := 0; ky < p.size; ky++ {
				irow := in[(oy*p.stride+ky)*x.w:][:x.w]
				for kx := 0; kx < p.size; kx++ {
					for ox, best := range orow {
						orow[ox] = max(best, irow[ox*p.stride+kx])
					}
				}
			}
		}
	}
	return out
}

// Forward implements Layer.
func (p *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return forwardAlone(p, x, nil)
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ho, wo := p.outDims(h, w)
	out := tensor.New(n, c, ho, wo)
	p.lastArgmax = make([]int, out.Len())
	p.lastShape = x.Shape()
	for i := 0; i < n; i++ {
		for ci := 0; ci < c; ci++ {
			in := x.Data[(i*c+ci)*h*w : (i*c+ci+1)*h*w]
			base := (i*c + ci) * ho * wo
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := -1
					for ky := 0; ky < p.size; ky++ {
						for kx := 0; kx < p.size; kx++ {
							iy := oy*p.stride + ky
							ix := ox*p.stride + kx
							if v := in[iy*w+ix]; v > best {
								best = v
								bestIdx = iy*w + ix
							}
						}
					}
					o := base + oy*wo + ox
					out.Data[o] = best
					p.lastArgmax[o] = (i*c+ci)*h*w + bestIdx
				}
			}
		}
	}
	return out
}

// Backward implements Layer: the gradient routes to each window's argmax.
func (p *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastArgmax == nil {
		panic(fmt.Sprintf("nn: pool %s: Backward without training Forward", p.name))
	}
	dx := tensor.New(p.lastShape...)
	for o, src := range p.lastArgmax {
		dx.Data[src] += grad.Data[o]
	}
	p.lastArgmax = nil // consumed; see Conv.Backward
	return dx
}

// ReLU is an executable rectified-linear activation.
type ReLU struct {
	name     string
	lastMask []bool
}

// NewReLU creates a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// infer implements Layer: in place on a buffer the call owns, into a new
// one otherwise — never on the caller's tensor.
func (r *ReLU) infer(x act, ctx inferCtx) act {
	out := x
	if !x.owned {
		out = ctx.alloc(x.n, x.c, x.h, x.w)
	}
	dst := out.data[:len(x.data)]
	for i, v := range x.data {
		// v < 0 holds exactly when v's bits lie in (0x80000000, 0xFF800000]
		// — sign set, neither -0 nor NaN. Clearing those values through an
		// arithmetic mask is `if v < 0 { v = 0 }` without the branch, which
		// on activations of random sign mispredicts every other element
		// (7× on AlexNet-S RELU1).
		b := math.Float32bits(v)
		neg := uint32((int64(b-0x80000001) - 0x7F800000) >> 63)
		dst[i] = math.Float32frombits(b &^ neg)
	}
	return out
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return forwardAlone(r, x, nil).Reshape(x.Shape()...)
	}
	out := x.Clone()
	r.lastMask = make([]bool, out.Len())
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		} else {
			r.lastMask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastMask == nil {
		panic(fmt.Sprintf("nn: relu %s: Backward without training Forward", r.name))
	}
	dx := grad.Clone()
	for i := range dx.Data {
		if !r.lastMask[i] {
			dx.Data[i] = 0
		}
	}
	r.lastMask = nil // consumed; see Conv.Backward
	return dx
}
