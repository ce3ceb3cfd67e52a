//go:build amd64

package tensor

import (
	"math/rand"
	"testing"
)

// TestAVX512TileMatches6x16 holds the AVX-512 12×32 tile to the AVX2 6×16
// bit for bit, not within a tolerance: each C element is one FMA chain
// from zero in ascending k per KC step under both, so MR, NR and MC must
// not move a single output. Random shapes carry ragged M and N edge tiles
// and two or three KC steps; every GEMM form the blocked path runs —
// plain, TransA, TransB and the fused im2col packer over full and
// perforated geometries — runs unsharded and as two stripes.
func TestAVX512TileMatches6x16(t *testing.T) {
	if !useAVX512 {
		t.Skip("host lacks AVX-512F")
	}
	t6 := TileConfig{MC: 120, KC: 256, MR: 6, NR: 16}
	t12 := TileConfig{MC: 120, KC: 256, MR: 12, NR: 32}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(140) // past one MC block
		n := 1 + rng.Intn(100)
		k := t12.KC + 1 + rng.Intn(2*t12.KC)
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		at, bt := randTensor(rng, k, m), randTensor(rng, n, k)
		for _, v := range []struct {
			name           string
			a, b           *Tensor
			aTrans, bTrans bool
		}{
			{"plain", a, b, false, false},
			{"TransA", at, b, true, false},
			{"TransB", a, bt, false, true},
		} {
			for _, chunks := range []int{1, 2} {
				want, got := New(m, n), New(m, n)
				blockedGEMM(want.Data, v.a.Data, v.b.Data, m, n, k, v.aTrans, v.bTrans, t6, chunks)
				blockedGEMM(got.Data, v.a.Data, v.b.Data, m, n, k, v.aTrans, v.bTrans, t12, chunks)
				if !bitIdentical(got, want) {
					t.Fatalf("%s %dx%dx%d at %d chunks: 12×32 differs from 6×16", v.name, m, k, n, chunks)
				}
			}
		}
	}

	// Fused im2col with K = C·9 > KC: a strided-gather plane (11 wide),
	// a 16-wide plane whose panels are 4-float runs, and a perforated one.
	full := Im2colGeom{N: 2, C: 40, H: 9, W: 11, K: 3, Stride: 1, Pad: 1, HO: 9, WO: 11}
	runs := Im2colGeom{N: 1, C: 30, H: 16, W: 16, K: 3, Stride: 1, Pad: 1, HO: 16, WO: 16}
	perf := full
	perf.SX, perf.SY = []int{0, 2, 3, 7, 10}, []int{1, 4, 5, 8}
	for _, g := range []Im2colGeom{full, runs, perf} {
		m := 29
		a := randTensor(rng, m, g.Rows())
		x := randTensor(rng, g.Images(), g.C, g.H, g.W)
		for _, chunks := range []int{1, 2} {
			want, got := New(m, g.Cols()), New(m, g.Cols())
			blockedGEMMIm2col(want.Data, a.Data, nil, x.Data, m, g, t6, chunks)
			blockedGEMMIm2col(got.Data, a.Data, nil, x.Data, m, g, t12, chunks)
			if !bitIdentical(got, want) {
				t.Fatalf("fused geom %+v at %d chunks: 12×32 differs from 6×16", g, chunks)
			}
		}
	}
}

// TestSIMDKernelsFuseMultiplyAdd pins the rounding-class probe on every
// amd64 SIMD tile the host runs: each must return the fused result.
func TestSIMDKernelsFuseMultiplyAdd(t *testing.T) {
	for _, c := range []struct {
		on   bool
		tile TileConfig
	}{
		{useAVX2FMA, TileConfig{MC: 120, KC: 256, MR: 6, NR: 16}},
		{useAVX512, TileConfig{MC: 120, KC: 256, MR: 12, NR: 32}},
	} {
		if !c.on {
			continue
		}
		if got := fmaProbe(c.tile); got != probeFused {
			t.Errorf("tile %v: probe returns %g, want the fused 1+2⁻²³", c.tile, got)
		}
	}
}
