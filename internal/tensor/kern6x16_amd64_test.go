//go:build amd64

package tensor

import (
	"math/rand"
	"testing"
)

// TestKern6x16SIMDMatchesPortable runs identical blocked GEMMs through the
// AVX2+FMA kernel and the portable kernTile loop and compares elementwise.
// FMA rounds each multiply-add once, so agreement is tolerance-level;
// the shapes span multiple KC panels to cover both the store (first) and
// accumulate epilogues, plus M/N edge tiles.
func TestKern6x16SIMDMatchesPortable(t *testing.T) {
	if !useAVX2FMA {
		t.Skip("host lacks AVX2+FMA")
	}
	defer func() { useAVX2FMA = true }()

	rng := rand.New(rand.NewSource(7))
	tile := TileConfig{MC: 30, KC: 24, MR: 6, NR: 16}
	for _, d := range [][3]int{{6, 24, 16}, {17, 50, 23}, {64, 100, 70}} {
		m, k, n := d[0], d[1], d[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		want := New(m, n)
		got := New(m, n)
		useAVX2FMA = false
		blockedGEMM(want.Data, a.Data, b.Data, m, n, k, false, false, tile, 1)
		useAVX2FMA = true
		blockedGEMM(got.Data, a.Data, b.Data, m, n, k, false, false, tile, 1)
		for i := range got.Data {
			if !relClose(got.Data[i], want.Data[i], 1e-5) {
				t.Fatalf("m=%d k=%d n=%d: elem %d: simd %g, portable %g", m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}
