// Package tensor provides dense float32 tensors in NCHW layout and the
// small set of linear-algebra operations the CNN engine is built on.
//
// The package is deliberately minimal: it exists to support a faithful,
// dependency-free reproduction of CNN inference, not to be a general
// numerical library. All data is stored row-major in a single contiguous
// slice so that convolution can be lowered to GEMM over flat views.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense float32 tensor with an arbitrary-rank shape.
// Data is stored row-major (last dimension fastest).
type Tensor struct {
	shape   []int
	strides []int
	Data    []float32
	// dims backs shape and strides for rank ≤ 4 (every tensor the CNN
	// engine builds), so a header — New, FromSlice, Reshape — is one
	// allocation instead of three. Tensors are handled by pointer; a
	// struct copy would alias the original's dims.
	dims [8]int
}

// shapeString renders a shape for a panic message from a copy, so the
// variadic shape argument of New/FromSlice/Reshape does not escape to the
// heap on the path that does not panic.
func shapeString(shape []int) string { return fmt.Sprint(append([]int(nil), shape...)) }

// newHeader returns a tensor with the given shape (copied), its strides,
// and no data.
func newHeader(shape []int) *Tensor {
	t := &Tensor{}
	r := len(shape)
	if 2*r <= len(t.dims) {
		t.shape, t.strides = t.dims[:r:r], t.dims[r:2*r:2*r]
	} else {
		t.shape, t.strides = make([]int, r), make([]int, r)
	}
	copy(t.shape, shape)
	s := 1
	for i := r - 1; i >= 0; i-- {
		t.strides[i] = s
		s *= shape[i]
	}
	return t
}

// New allocates a zero-filled tensor with the given shape.
// A scalar tensor may be created with no dimensions.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %s", d, shapeString(shape)))
		}
		n *= d
	}
	t := newHeader(shape)
	t.Data = make([]float32, n)
	return t
}

// FromSlice wraps data with the given shape. The data slice is used
// directly (not copied); its length must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %s (volume %d)", len(data), shapeString(shape), n))
	}
	t := newHeader(shape)
	t.Data = data
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data with a new shape.
// The new shape must have the same volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %s", len(t.Data), shapeString(shape)))
	}
	v := newHeader(shape)
	v.Data = t.Data
	return v
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Scale multiplies every element by a.
func (t *Tensor) Scale(a float32) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled adds a*o to t element-wise. Shapes must match in volume.
func (t *Tensor) AddScaled(o *Tensor, a float32) {
	if len(o.Data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: AddScaled volume mismatch %d vs %d", len(t.Data), len(o.Data)))
	}
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// Add adds o to t element-wise.
func (t *Tensor) Add(o *Tensor) { t.AddScaled(o, 1) }

// Sum returns the sum of all elements, accumulated in float64.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the maximum absolute element value.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if a := float32(math.Abs(float64(v))); a > m {
			m = a
		}
	}
	return m
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 6 {
		n = 6
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}

// AllClose reports whether all elements of a and b differ by at most tol.
func AllClose(a, b *Tensor, tol float32) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if float32(math.Abs(float64(a.Data[i]-b.Data[i]))) > tol {
			return false
		}
	}
	return true
}
