package tensor

import (
	"math/bits"
	"sync"
)

// Pooled scratch buffers for the hot path: im2col column matrices, GEMM
// outputs and the blocked GEMM's packed-A blocks and packed-B slabs are
// rebuilt every forward pass, and without reuse they dominate allocation.
// Buffers are pooled in power-of-two size classes so a request is always
// satisfied by a buffer of at most 2× its size and a returned buffer never
// serves a request it cannot hold. The classes also keep small requests (a
// packed-A block, MC·KC ≈ 32 K floats plus a staging tile) off the large
// buffers (a conv layer's packed-B slab, megabytes). A request over 2^24
// floats is allocated per call and dropped on release; the largest slab
// any benchmark workload packs, VGG CONV2_1's, is ≈ 3.2 M floats.

const (
	// scratchMinBits is the smallest pooled capacity (2^6 floats);
	// anything smaller is cheaper to allocate than to pool.
	scratchMinBits = 6
	// scratchMaxBits caps pooled capacity at 2^24 floats (64 MiB), so a
	// one-off giant buffer cannot pin memory in the pool.
	scratchMaxBits = 24
)

var scratchClasses [scratchMaxBits - scratchMinBits + 1]sync.Pool

// scratchBoxes recycles the *[]float32 boxes the class pools hold: a
// sync.Pool stores pointers, and boxing the slice header anew on every
// PutScratch would make each release an allocation.
var scratchBoxes sync.Pool

// getClass returns the class whose buffers all hold ≥ n floats
// (ceil log2), or len(scratchClasses) when n is too large to pool.
func getClass(n int) int {
	if n <= 1<<scratchMinBits {
		return 0
	}
	return bits.Len(uint(n-1)) - scratchMinBits
}

// putClass returns the class a buffer of capacity c feeds (floor log2),
// or -1 when it is outside the pooled range.
func putClass(c int) int {
	if c < 1<<scratchMinBits {
		return -1
	}
	cls := bits.Len(uint(c)) - 1 - scratchMinBits
	if cls >= len(scratchClasses) {
		return -1
	}
	return cls
}

// GetScratch returns a length-n float32 buffer, reusing a pooled one when
// available. Contents are arbitrary — callers must fully overwrite (all
// GEMM Into forms and im2colInto do). Release with PutScratch.
func GetScratch(n int) []float32 {
	if n == 0 {
		return nil
	}
	cls := getClass(n)
	if cls < len(scratchClasses) {
		if v := scratchClasses[cls].Get(); v != nil {
			box := v.(*[]float32)
			s := (*box)[:n]
			*box = nil
			scratchBoxes.Put(box)
			return s
		}
		return make([]float32, n, 1<<(cls+scratchMinBits))
	}
	return make([]float32, n)
}

// PutScratch returns a buffer obtained from GetScratch to the pool. The
// caller must not use s afterwards; aliasing a pooled buffer is a data
// race with its next owner.
func PutScratch(s []float32) {
	cls := putClass(cap(s))
	if cls < 0 {
		return
	}
	box, _ := scratchBoxes.Get().(*[]float32)
	if box == nil {
		box = new([]float32)
	}
	*box = s[:cap(s)]
	scratchClasses[cls].Put(box)
}

// NewScratch returns a tensor backed by pooled scratch plus a release
// function. Contents are arbitrary; the tensor must not be used after
// release.
func NewScratch(shape ...int) (*Tensor, func()) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	s := GetScratch(n)
	return FromSlice(s, shape...), func() { PutScratch(s) }
}
