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

	lastInput *tensor.Tensor // the training forward's input, for Backward
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
// unlike Backward's argmax scan (`v > best`) it propagates a NaN in the
// window instead of skipping it.
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

// Forward implements Layer. A training forward is infer, keeping x for
// Backward.
func (p *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		p.lastInput = x
	}
	return forwardAlone(p, x, nil)
}

// Backward implements Layer: the gradient routes to each window's argmax
// in the kept input — the first element strictly greater than every one
// before it in (ky, kx) scan order, so a tie goes to the earliest.
func (p *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := p.lastInput
	if x == nil {
		panic(fmt.Sprintf("nn: pool %s: Backward without training Forward", p.name))
	}
	h, w := x.Dim(2), x.Dim(3)
	ho, wo := p.outDims(h, w)
	dx := tensor.New(x.Shape()...)
	for pl := 0; pl < x.Dim(0)*x.Dim(1); pl++ {
		in := x.Data[pl*h*w:][:h*w]
		g := grad.Data[pl*ho*wo:][:ho*wo]
		d := dx.Data[pl*h*w:][:h*w]
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				at := oy*p.stride*w + ox*p.stride // the window's top-left
				best, arg := float32(math.Inf(-1)), at
				for ky := 0; ky < p.size; ky++ {
					for kx := 0; kx < p.size; kx++ {
						if v := in[at+ky*w+kx]; v > best {
							best, arg = v, at+ky*w+kx
						}
					}
				}
				d[arg] += g[oy*wo+ox]
			}
		}
	}
	p.lastInput = nil // consumed; see Conv.Backward
	return dx
}

// ReLU is an executable rectified-linear activation.
type ReLU struct {
	name      string
	lastInput *tensor.Tensor // the training forward's input, for Backward
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

// Forward implements Layer. A training forward is infer, keeping x for
// Backward.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		r.lastInput = x
	}
	return forwardAlone(r, x, nil).Reshape(x.Shape()...)
}

// Backward implements Layer: the gradient passes where the kept input was
// not negative.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastInput == nil {
		panic(fmt.Sprintf("nn: relu %s: Backward without training Forward", r.name))
	}
	dx := grad.Clone()
	for i, v := range r.lastInput.Data {
		if v < 0 {
			dx.Data[i] = 0
		}
	}
	r.lastInput = nil // consumed; see Conv.Backward
	return dx
}
