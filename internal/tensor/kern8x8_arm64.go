//go:build arm64

package tensor

// The 8×8 micro-kernel on arm64: sixteen 4-float NEON accumulators (two
// per C-tile row) hold the whole 8×8 tile, so ARMv8 hosts run the
// assembly kernel in kern8x8_arm64.s. Advanced SIMD is architecturally
// mandatory on AArch64, so unlike the amd64 CPUID probe there is nothing
// to detect at init; useNEON8x8 exists as the same test seam useAVX2FMA
// provides, letting tests compare the SIMD and portable kernels on one
// host.

// kern8x8neon is the NEON kernel in kern8x8_arm64.s. kc must be >= 1.
//
//go:noescape
func kern8x8neon(kc int, ap, bp, c *float32, ldc int, first bool)

// useNEON8x8 gates the assembly path; tests flip it to compare the SIMD
// and portable kernels on the same host.
var useNEON8x8 = true

// SetSIMD turns the assembly kernel on or off and reports whether it was
// on, so that other packages' tests can run on the portable kernels too.
// It is not safe to call while any kernel runs.
func SetSIMD(on bool) (was bool) {
	was, useNEON8x8 = useNEON8x8, on
	return was
}

func init() {
	if useNEON8x8 {
		// Two quad registers per C-tile row hold the whole 8×8 tile.
		DefaultTile = TileConfig{MC: 128, KC: 256, MR: 8, NR: 8}
	}
}

// kern8x8 runs the 8×8 tile on the fastest available path.
func kern8x8(kc int, ap, bp, c []float32, ldc int, first bool) {
	if useNEON8x8 && kc > 0 {
		kern8x8neon(kc, &ap[0], &bp[0], &c[0], ldc, first)
		return
	}
	kernTile(8, 8, kc, ap, bp, c, ldc, first)
}

// kern6x16 and kern12x32 have no arm64 assembly: those tiles run the
// portable loop.
func kern6x16(kc int, ap, bp, c []float32, ldc int, first bool) {
	kernTile(6, 16, kc, ap, bp, c, ldc, first)
}

func kern12x32(kc int, ap, bp, c []float32, ldc int, first bool) {
	kernTile(12, 32, kc, ap, bp, c, ldc, first)
}
