//go:build !amd64 && !arm64

package tensor

// Without an assembly kernel for this architecture the SIMD-sized tiles
// run the portable loop.

func kern8x8(kc int, ap, bp, c []float32, ldc int, first bool) {
	kernTile(8, 8, kc, ap, bp, c, ldc, first)
}

func kern6x16(kc int, ap, bp, c []float32, ldc int, first bool) {
	kernTile(6, 16, kc, ap, bp, c, ldc, first)
}

func kern12x32(kc int, ap, bp, c []float32, ldc int, first bool) {
	kernTile(12, 32, kc, ap, bp, c, ldc, first)
}

// SetSIMD reports that no assembly kernel runs here; there is nothing to
// turn on.
func SetSIMD(on bool) (was bool) { return false }
