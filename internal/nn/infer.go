package nn

import (
	"fmt"

	"pcnn/internal/perforate"
	"pcnn/internal/tensor"
)

// Inference forward is a pure function of (weights, input, options): the
// perforation grids and the GEMM engine travel with the call, layers keep
// no per-request state, and any number of goroutines may run inference on
// one shared network at once — each at its own operating point. ForwardOpts
// are the only way to perforate a network; a call without them computes
// every layer in full. Conv.SetPerforation/SetEngine are the lone-layer
// form: they build that layer's own options, which only its own
// Forward(x, false) runs under.

// Keep is a computed output grid Wo′×Ho′. The zero value, and any grid at
// or above a layer's full output extent, means full computation.
type Keep struct{ W, H int }

// Full reports whether the grid computes every position of a wo×ho map.
func (k Keep) Full(wo, ho int) bool {
	return k.W <= 0 || k.H <= 0 || (k.W >= wo && k.H >= ho)
}

// ForwardOpts is the operating point of one inference call: the mask every
// perforable layer computes under and the engine every GEMM runs on. A
// value is immutable once built, so one may serve concurrent calls.
type ForwardOpts struct {
	masks  map[*Conv]*perforate.Mask // layers absent compute their full grid
	engine *tensor.Engine            // nil = tensor.Default()
}

// NewForwardOpts resolves an operating point for this network. keeps[i] is
// the grid of PerforableLayers()[i] (nil keeps: every layer full); eng nil
// selects the package default engine. Masks are built here, once, so the
// request path constructs none.
func (s *Sequential) NewForwardOpts(keeps []Keep, eng *tensor.Engine) *ForwardOpts {
	o := &ForwardOpts{engine: eng}
	if keeps == nil {
		return o
	}
	layers := s.PerforableLayers()
	if len(keeps) != len(layers) {
		panic(fmt.Sprintf("nn: %s: %d keeps for %d perforable layers", s.NetName, len(keeps), len(layers)))
	}
	o.masks = make(map[*Conv]*perforate.Mask, len(layers))
	for i, c := range layers {
		if m := c.maskFor(keeps[i]); m != nil {
			o.masks[c] = m
		}
	}
	return o
}

// act is one NCHW activation inside an inference call. owned marks a
// buffer the call took from the scratch pool: the call may overwrite it in
// place and returns it to the pool once consumed. The caller's input is
// never owned.
type act struct {
	data       []float32
	n, c, h, w int
	owned      bool
}

// release hands a consumed activation back to the arena.
func (a act) release() {
	if a.owned {
		tensor.PutScratch(a.data)
	}
}

// actOf views a tensor as an activation: rank-4 tensors as they are, any
// other shape as N×(features)×1×1.
func actOf(x *tensor.Tensor) act {
	if x.Rank() == 4 {
		return act{data: x.Data, n: x.Dim(0), c: x.Dim(1), h: x.Dim(2), w: x.Dim(3)}
	}
	n := x.Dim(0)
	return act{data: x.Data, n: n, c: x.Len() / max(n, 1), h: 1, w: 1}
}

// inferCtx carries one inference call's options and activation memory
// through the layers. The call's arena is the package scratch pool: with
// pooled set, every intermediate is taken from it and handed back as soon
// as the next layer has consumed it (so a chain ping-pongs between two or
// three buffers), and only what the caller receives is freshly allocated.
type inferCtx struct {
	opts   *ForwardOpts // nil: every layer full, on its own SetEngine engine
	pooled bool
}

// alloc returns an n×c×h×w output activation with arbitrary contents;
// layers overwrite every element.
func (ctx inferCtx) alloc(n, c, h, w int) act {
	size := n * c * h * w
	if ctx.pooled {
		return act{data: tensor.GetScratch(size), n: n, c: c, h: h, w: w, owned: true}
	}
	return act{data: make([]float32, size), n: n, c: c, h: h, w: w}
}

// engine resolves the call's GEMM engine; own is the layer's SetEngine
// engine, which only a call without options reads.
func (ctx inferCtx) engine(own *tensor.Engine) *tensor.Engine {
	if ctx.opts != nil {
		own = ctx.opts.engine
	}
	if own == nil {
		return tensor.Default()
	}
	return own
}

// inferChain runs layers in order, recycling each intermediate once the
// next layer has produced its output — unless that layer worked in place
// and handed its input back.
func inferChain(layers []Layer, x act, ctx inferCtx) act {
	for _, l := range layers {
		y := l.infer(x, ctx)
		if inPlace := len(x.data) > 0 && len(y.data) > 0 && &y.data[0] == &x.data[0]; !inPlace {
			x.release()
		}
		x = y
	}
	return x
}

// forwardAlone is Layer.Forward(x, false) for one layer on its own: the
// layer's own options o (nil for every layer but Conv), a freshly allocated
// output the caller keeps.
func forwardAlone(l Layer, x *tensor.Tensor, o *ForwardOpts) *tensor.Tensor {
	y := l.infer(actOf(x), inferCtx{opts: o})
	return tensor.FromSlice(y.data, y.n, y.c, y.h, y.w)
}
