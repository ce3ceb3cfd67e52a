//go:build amd64

package tensor

// The 8×8 micro-kernel is the one register tile wide enough for SIMD:
// eight 8-float YMM accumulators hold the whole C tile, so on hosts with
// AVX2+FMA it runs the assembly kernel in kern8x8_amd64.s. Detection is
// done once at init via CPUID/XGETBV (FMA, AVX, AVX2, and OS-saved YMM
// state); anything missing falls back to the portable kern8x8go, as do
// non-amd64 builds (kern8x8_other.go).

// kern8x8fma is the AVX2+FMA kernel in kern8x8_amd64.s. kc must be >= 1.
//
//go:noescape
func kern8x8fma(kc int, ap, bp, c *float32, ldc int, first bool)

// cpuidex and xgetbv0 (kern8x8_amd64.s) expose the CPUID leaf and
// extended-control-register reads the feature probe needs.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasFMA8x8 records the probe; useFMA8x8 gates the assembly paths — the
// 8×8 micro-kernel and the elementwise kernels of vec_amd64.s — and tests
// flip it to compare the SIMD and portable kernels on the same host.
var (
	hasFMA8x8 = detectFMA()
	useFMA8x8 = hasFMA8x8
)

// SetSIMD turns the assembly kernels on (where the host has them) or off
// and reports whether they were on, so that other packages' tests can run
// their layers on the portable kernels too. It is not safe to call while
// any kernel runs.
func SetSIMD(on bool) (was bool) {
	was, useFMA8x8 = useFMA8x8, on && hasFMA8x8
	return was
}

func init() {
	if useFMA8x8 {
		// One YMM register per C-tile row beats the widest scalar tile by
		// ~6× on the swept layer shapes, so SIMD hosts default to it.
		DefaultTile = TileConfig{MC: 128, KC: 256, MR: 8, NR: 8}
	}
}

func detectFMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12 // CPUID.1:ECX
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
		avx2Bit    = 1 << 5 // CPUID.7.0:EBX
		ymmState   = 0x6    // XCR0: XMM and YMM state OS-managed
	)
	_, _, c1, _ := cpuidex(1, 0)
	if c1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&ymmState != ymmState {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&avx2Bit != 0
}

// kern8x8 runs the 8×8 tile on the fastest available path.
func kern8x8(kc int, ap, bp, c []float32, ldc int, first bool) {
	if useFMA8x8 && kc > 0 {
		kern8x8fma(kc, &ap[0], &bp[0], &c[0], ldc, first)
		return
	}
	kern8x8go(kc, ap, bp, c, ldc, first)
}
