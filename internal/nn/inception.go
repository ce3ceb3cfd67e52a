package nn

import (
	"fmt"

	"pcnn/internal/tensor"
)

// Inception runs parallel branches on the same input and concatenates
// their outputs along the channel axis — the module structure of
// GoogLeNet. All branches must produce the same spatial extent.
type Inception struct {
	name     string
	Branches []*Sequential // each branch is a small layer chain (Classes unused)

	lastChans []int // per-branch output channels from the last Forward
	lastDims  []int // N, H, W of the concatenated output
}

// NewInception assembles an inception module from branch layer chains.
func NewInception(name string, branches ...[]Layer) *Inception {
	inc := &Inception{name: name}
	for i, b := range branches {
		inc.Branches = append(inc.Branches, &Sequential{
			NetName: fmt.Sprintf("%s/b%d", name, i),
			Layers:  b,
		})
	}
	return inc
}

// Name implements Layer.
func (inc *Inception) Name() string { return inc.name }

// SetEngine implements EngineSetter, propagating into every branch.
func (inc *Inception) SetEngine(eng *tensor.Engine) {
	for _, b := range inc.Branches {
		b.SetEngine(eng)
	}
}

// Params implements Layer.
func (inc *Inception) Params() []*Param {
	var ps []*Param
	for _, b := range inc.Branches {
		ps = append(ps, b.Params()...)
	}
	return ps
}

// Forward implements Layer. Only a training forward records the branch
// widths Backward splits the gradient by; inference keeps them in locals,
// so concurrent inference on a shared module writes nothing.
func (inc *Inception) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return forwardAlone(inc, x, inferCtx{})
	}
	outs := make([]act, len(inc.Branches))
	inc.lastChans = make([]int, len(inc.Branches))
	for i, b := range inc.Branches {
		o := x
		for _, l := range b.Layers {
			o = l.Forward(o, true)
		}
		outs[i] = actOf(o)
		inc.lastChans[i] = o.Dim(1)
	}
	out := inc.concat(outs, inferCtx{})
	inc.lastDims = []int{out.n, out.h, out.w}
	return tensor.FromSlice(out.data, out.n, out.c, out.h, out.w)
}

// infer implements Layer. Every branch reads the module input, so the
// branches see it as not theirs to overwrite or recycle.
func (inc *Inception) infer(x act, ctx inferCtx) act {
	x.owned = false
	outs := make([]act, len(inc.Branches))
	for i, b := range inc.Branches {
		outs[i] = inferChain(b.Layers, x, ctx)
	}
	out := inc.concat(outs, ctx)
	for _, o := range outs {
		o.release()
	}
	return out
}

// concat joins branch outputs along the channel axis.
func (inc *Inception) concat(outs []act, ctx inferCtx) act {
	n, h, w := outs[0].n, outs[0].h, outs[0].w
	totalC := 0
	for i, o := range outs {
		if o.n != n || o.h != h || o.w != w {
			panic(fmt.Sprintf("nn: inception %s: branch %d output [%d %d %d %d] mismatches [%d _ %d %d]",
				inc.name, i, o.n, o.c, o.h, o.w, n, h, w))
		}
		totalC += o.c
	}
	out := ctx.alloc(n, totalC, h, w)
	plane := h * w
	for s := 0; s < n; s++ {
		cOff := 0
		for _, o := range outs {
			copy(out.data[(s*totalC+cOff)*plane:][:o.c*plane], o.data[s*o.c*plane:][:o.c*plane])
			cOff += o.c
		}
	}
	return out
}

// Backward implements Layer: the gradient splits along channels, flows
// through each branch, and the branch input-gradients sum.
func (inc *Inception) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if inc.lastDims == nil {
		panic(fmt.Sprintf("nn: inception %s: Backward without training Forward", inc.name))
	}
	n, h, w := inc.lastDims[0], inc.lastDims[1], inc.lastDims[2]
	plane := h * w
	totalC := grad.Dim(1)

	var dx *tensor.Tensor
	cOff := 0
	for i, b := range inc.Branches {
		ci := inc.lastChans[i]
		bg := tensor.New(n, ci, h, w)
		for s := 0; s < n; s++ {
			src := grad.Data[(s*totalC+cOff)*plane : (s*totalC+cOff+ci)*plane]
			dst := bg.Data[s*ci*plane : (s+1)*ci*plane]
			copy(dst, src)
		}
		g := bg
		for j := len(b.Layers) - 1; j >= 0; j-- {
			g = b.Layers[j].Backward(g)
		}
		if dx == nil {
			dx = g
		} else {
			dx.Add(g)
		}
		cOff += ci
	}
	return dx
}
