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

// infer implements Layer: window maxima only, no argmax bookkeeping. A
// vertical max over each window's input rows (tensor.MaxRows) leaves one
// w-wide row per output row; a horizontal max across each window of that
// row finishes it — the 2×2/2 pool every scaled network uses de-interleaves
// them in one pass (tensor.PairMax), any other window runs a scalar loop.
// Both steps take the builtin max's semantics, so unlike Backward's
// argmax scan (`v > best`) a NaN in the window propagates instead of
// being skipped.
func (p *MaxPool) infer(x act, ctx inferCtx) act {
	ho, wo := p.outDims(x.h, x.w)
	out := ctx.alloc(x.n, x.c, ho, wo)
	// When the windows tile each plane's rows exactly (h = ho·stride),
	// output row k of the whole batch starts at input row k·stride, so each
	// step is one call over every plane; otherwise one per plane.
	groups, planes := x.n*x.c, 1
	if x.h == ho*p.stride {
		groups, planes = 1, x.n*x.c
	}
	rows, inLen := planes*ho, planes*x.h*x.w
	vmax := tensor.GetScratch(rows * x.w)
	defer tensor.PutScratch(vmax)
	pairs := p.size == 2 && p.stride == 2 && x.w%2 == 0
	for g := 0; g < groups; g++ {
		tensor.MaxRows(vmax, x.data[g*inLen:][:inLen], x.w, p.size, p.stride)
		o := out.data[g*rows*wo:][:rows*wo]
		if pairs {
			tensor.PairMax(o, vmax)
			continue
		}
		for r := 0; r < rows; r++ {
			row, orow := vmax[r*x.w:][:x.w], o[r*wo:][:wo]
			for ox := range orow {
				win := row[ox*p.stride:][:p.size]
				best := win[0]
				for _, v := range win[1:] {
					best = max(best, v)
				}
				orow[ox] = best
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
	return forwardAlone(p, x, inferCtx{})
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
	tensor.ReLU(out.data, x.data)
	return out
}

// Forward implements Layer. A training forward is infer, keeping x for
// Backward.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		r.lastInput = x
	}
	return forwardAlone(r, x, inferCtx{}).Reshape(x.Shape()...)
}

// Backward implements Layer: the gradient passes where the kept input was
// not negative. It consumes grad in place, one pass, and returns it.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastInput == nil {
		panic(fmt.Sprintf("nn: relu %s: Backward without training Forward", r.name))
	}
	g := grad.Data[:len(r.lastInput.Data)]
	for i, v := range r.lastInput.Data {
		if v < 0 {
			g[i] = 0
		}
	}
	r.lastInput = nil // consumed; see Conv.Backward
	return grad
}
