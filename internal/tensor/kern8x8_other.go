//go:build !amd64 && !arm64

package tensor

// kern8x8 runs the 8×8 tile; without an assembly kernel for this
// architecture it is the portable scalar path.
func kern8x8(kc int, ap, bp, c []float32, ldc int, first bool) {
	kern8x8go(kc, ap, bp, c, ldc, first)
}

// SetSIMD reports that no assembly kernel runs here; there is nothing to
// turn on.
func SetSIMD(on bool) (was bool) { return false }
