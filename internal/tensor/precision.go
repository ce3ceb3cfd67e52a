package tensor

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// The Precision axis: forward GEMMs can trade accuracy for arithmetic
// cost by running in reduced precision, the same accuracy↔cost dial the
// paper turns with perforation (Section IV.C) but on the number format
// instead of the sample grid. FP16 rounds both operands through IEEE
// half storage and accumulates in fp32 — a storage-precision model of a
// half-rate GPU path. Int8 quantizes A per row and B per column to
// symmetric int8 (scale = maxabs/127), accumulates in int32 and
// dequantizes on store — the classic inference quantization scheme.
// Both apply to the forward (non-transposed) product only: the
// transposed forms exist for backward passes, and training stays fp32.

// Precision selects the number format of forward GEMM arithmetic.
type Precision int32

const (
	// FP32 is full single precision — the default, bit-identical to the
	// engine's behavior before the precision axis existed.
	FP32 Precision = iota
	// FP16 rounds operands to IEEE half storage, accumulating in fp32.
	FP16
	// Int8 quantizes symmetrically to 8 bits (per-row scales for A,
	// per-column for B), accumulates in int32 and dequantizes on store.
	Int8
)

// String renders the precision name accepted by ParsePrecision.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case Int8:
		return "int8"
	}
	return fmt.Sprintf("Precision(%d)", int32(p))
}

// UnknownPrecisionError reports an unrecognized precision name, so knob
// parsing failures are distinguishable with errors.As (the same pattern
// the public API uses for platform and network names).
type UnknownPrecisionError struct{ Name string }

// Error implements error.
func (e *UnknownPrecisionError) Error() string {
	return "tensor: unknown precision " + e.Name + " (want fp32, fp16 or int8)"
}

// ParsePrecision converts a name ("fp32", "fp16", "int8") to a
// Precision; the empty string is FP32.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "fp32", "float32", "":
		return FP32, nil
	case "fp16", "float16", "half":
		return FP16, nil
	case "int8", "i8":
		return Int8, nil
	}
	return FP32, &UnknownPrecisionError{Name: s}
}

// SetPrecision changes the number format of subsequent forward GEMMs.
// Safe for concurrent use.
func (e *Engine) SetPrecision(p Precision) { e.precision.Store(int32(p)) }

// Precision returns the engine's current forward-GEMM precision.
func (e *Engine) Precision() Precision { return Precision(e.precision.Load()) }

// f32ToF16 converts to IEEE half bits with round-to-nearest-even.
func f32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	if b>>23&0xff == 0xff { // Inf / NaN
		if man != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	}
	if exp >= 0x1f { // overflow saturates to Inf
		return sign | 0x7c00
	}
	if exp <= 0 { // subnormal half (or underflow to zero)
		if exp < -10 {
			return sign
		}
		man |= 0x800000
		shift := uint32(14 - exp)
		v := man >> shift
		half := uint32(1) << (shift - 1)
		if man&half != 0 && (man&(half-1) != 0 || v&1 != 0) {
			v++
		}
		return sign | uint16(v)
	}
	v := uint32(exp)<<10 | man>>13
	if man&0x1000 != 0 && (man&0xfff != 0 || v&1 != 0) {
		v++ // carry into the exponent is correct RNE behavior
	}
	return sign | uint16(v)
}

// f16ToF32 widens IEEE half bits back to float32 exactly.
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // ±0
		}
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 { // normalize the subnormal
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	case exp == 0x1f:
		if man == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7f800000 | man<<13)
	}
	return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
}

// f16RoundInto writes src rounded through IEEE 754 half-precision storage
// (round-to-nearest-even) into dst — the values an fp16 memory path would
// read back. Out-of-range magnitudes saturate to ±Inf as the format does.
func f16RoundInto(dst, src []float32) {
	for i, v := range src {
		dst[i] = f16ToF32(f32ToF16(v))
	}
}

// matMulFP16 rounds both operands through half storage into pooled
// scratch and runs the ordinary fp32 path on the rounded copies.
func (e *Engine) matMulFP16(c, a, b *Tensor, m, k, n int) {
	ar, releaseA := NewScratch(m, k)
	br, releaseB := NewScratch(k, n)
	defer releaseA()
	defer releaseB()
	f16RoundInto(ar.Data, a.Data)
	f16RoundInto(br.Data, b.Data)
	e.matMulFP32(c.Data, ar.Data, br.Data, m, k, n)
}

// quantizeRowsInt8 quantizes each of m rows of src (row-major m×k) to
// symmetric int8 with scale[i] = maxabs(row i)/127; an all-zero row
// gets scale 0 and zero codes.
func quantizeRowsInt8(dst []int8, scale []float32, src []float32, m, k int) {
	for i := 0; i < m; i++ {
		row := src[i*k : (i+1)*k]
		var maxAbs float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		drow := dst[i*k : (i+1)*k]
		if maxAbs == 0 {
			scale[i] = 0
			for j := range drow {
				drow[j] = 0
			}
			continue
		}
		s := maxAbs / 127
		inv := 127 / maxAbs
		scale[i] = s
		for j, v := range row {
			drow[j] = roundInt8(v * inv)
		}
	}
}

// quantizeColsInt8 quantizes each of n columns of src (row-major k×n)
// to symmetric int8 with scale[j] = maxabs(col j)/127, keeping the
// quantized matrix row-major so the accumulate loop streams rows.
func quantizeColsInt8(dst []int8, scale []float32, src []float32, k, n int) {
	for j := 0; j < n; j++ {
		scale[j] = 0
	}
	for kk := 0; kk < k; kk++ {
		row := src[kk*n : (kk+1)*n]
		for j, v := range row {
			if v < 0 {
				v = -v
			}
			if v > scale[j] {
				scale[j] = v
			}
		}
	}
	inv := make([]float32, n)
	for j := range inv {
		if scale[j] == 0 {
			inv[j] = 0
		} else {
			inv[j] = 127 / scale[j]
			scale[j] /= 127
		}
	}
	for kk := 0; kk < k; kk++ {
		row := src[kk*n : (kk+1)*n]
		drow := dst[kk*n : (kk+1)*n]
		for j, v := range row {
			drow[j] = roundInt8(v * inv[j])
		}
	}
}

// roundInt8 rounds to the nearest int8 code, ties away from zero,
// saturating at ±127 (symmetric: -128 is never produced).
func roundInt8(v float32) int8 {
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	i := int32(v)
	if i > 127 {
		i = 127
	}
	if i < -127 {
		i = -127
	}
	return int8(i)
}

// int8Scratch pools the quantized-operand buffers of matMulInt8 so the
// steady-state quantized path does not allocate per call.
var int8Scratch = sync.Pool{New: func() any { return new(int8Buffers) }}

type int8Buffers struct {
	a8, b8 []int8
	sa, sb []float32
}

func grow8(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}

func grow32(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// matMulInt8 computes C = A·B in symmetric int8: quantize, accumulate
// exactly in int32 row kernels (rows sharded across the pool when the
// whole product clears the sharding threshold — integer sums are
// order-independent, so sharding cannot change them), dequantize with
// sa[i]·sb[j] on store.
func (e *Engine) matMulInt8(cd, ad, bd []float32, m, k, n int) {
	buf := int8Scratch.Get().(*int8Buffers)
	buf.a8 = grow8(buf.a8, m*k)
	buf.b8 = grow8(buf.b8, k*n)
	buf.sa = grow32(buf.sa, m)
	buf.sb = grow32(buf.sb, n)
	quantizeRowsInt8(buf.a8, buf.sa, ad, m, k)
	quantizeColsInt8(buf.b8, buf.sb, bd, k, n)
	a8, b8, sa, sb := buf.a8, buf.b8, buf.sa, buf.sb
	rows := func(lo, hi int) {
		acc := make([]int32, n)
		for i := lo; i < hi; i++ {
			for j := range acc {
				acc[j] = 0
			}
			arow := a8[i*k : (i+1)*k]
			for kk := 0; kk < k; kk++ {
				av := int32(arow[kk])
				if av == 0 {
					continue
				}
				brow := b8[kk*n : (kk+1)*n]
				for j, bv := range brow {
					acc[j] += av * int32(bv)
				}
			}
			si := sa[i]
			crow := cd[i*n : (i+1)*n]
			for j, v := range acc {
				crow[j] = float32(v) * si * sb[j]
			}
		}
	}
	if e.shouldParallel(m, n, k) {
		e.pool.parallelFor(m, rows)
	} else {
		rows(0, m)
	}
	int8Scratch.Put(buf)
}
