//go:build arm64

package tensor

import (
	"math/rand"
	"testing"
)

// TestKern8x8NEONMatchesPortable runs identical blocked GEMMs through the
// NEON kernel and the portable kernTile loop and compares elementwise. FMLA
// rounds each multiply-add once, so agreement is tolerance-level; the
// shapes span multiple KC panels to cover both the store (first) and
// accumulate epilogues, plus M/N edge tiles. (The CI host is amd64, so
// this runs only on real arm64 hardware — the cross-compile gate in
// `make ci` keeps it building in the meantime.)
func TestKern8x8NEONMatchesPortable(t *testing.T) {
	if !useNEON8x8 {
		t.Skip("NEON kernel disabled")
	}
	defer func() { useNEON8x8 = true }()

	rng := rand.New(rand.NewSource(7))
	tile := TileConfig{MC: 32, KC: 24, MR: 8, NR: 8}
	for _, d := range [][3]int{{8, 24, 8}, {17, 50, 23}, {64, 100, 70}} {
		m, k, n := d[0], d[1], d[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		want := New(m, n)
		got := New(m, n)
		useNEON8x8 = false
		blockedGEMM(want.Data, a.Data, b.Data, m, n, k, false, false, tile, 1)
		useNEON8x8 = true
		blockedGEMM(got.Data, a.Data, b.Data, m, n, k, false, false, tile, 1)
		for i := range got.Data {
			if !relClose(got.Data[i], want.Data[i], 1e-5) {
				t.Fatalf("m=%d k=%d n=%d: elem %d: neon %g, portable %g", m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestKern8x8NEONFusesMultiplyAdd pins the rounding-class probe on the
// NEON tile: FMLA is fused, so the training golden's class header reads
// fma here as on the amd64 SIMD tiles.
func TestKern8x8NEONFusesMultiplyAdd(t *testing.T) {
	if !useNEON8x8 {
		t.Skip("NEON kernel disabled")
	}
	if got := fmaProbe(TileConfig{MC: 128, KC: 256, MR: 8, NR: 8}); got != probeFused {
		t.Fatalf("NEON 8×8: probe returns %g, want the fused 1+2⁻²³", got)
	}
}
