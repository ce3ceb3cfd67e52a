//go:build amd64

package tensor

// The 6×16 micro-kernel is the amd64 SIMD register tile: twelve 8-float
// YMM accumulators hold the whole C tile, twelve independent FMA chains
// where an 8×8 tile keeps eight, so on hosts with AVX2+FMA it runs the
// assembly kernel in kern6x16_amd64.s. Detection is done once at init
// via CPUID/XGETBV (FMA, AVX, AVX2, and OS-saved YMM state); anything
// missing falls back to the portable kernTile loop.

// kern6x16fma is the AVX2+FMA kernel in kern6x16_amd64.s. kc must be >= 1.
//
//go:noescape
func kern6x16fma(kc int, ap, bp, c *float32, ldc int, first bool)

// cpuidex and xgetbv0 (kern6x16_amd64.s) expose the CPUID leaf and
// extended-control-register reads the feature probe needs.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2FMA records the probe; useAVX2FMA gates the assembly paths — the
// 6×16 micro-kernel and the elementwise kernels of vec_amd64.s — and tests
// flip it to compare the SIMD and portable kernels on the same host.
var (
	hasAVX2FMA = detectFMA()
	useAVX2FMA = hasAVX2FMA
)

// SetSIMD turns the assembly kernels on (where the host has them) or off
// and reports whether they were on, so that other packages' tests can run
// their layers on the portable kernels too. It is not safe to call while
// any kernel runs.
func SetSIMD(on bool) (was bool) {
	was, useAVX2FMA = useAVX2FMA, on && hasAVX2FMA
	return was
}

func init() {
	if useAVX2FMA {
		// Two YMM registers per C-tile row: twelve FMA chains cover the
		// latency eight leave exposed (≈ 1.3× the 8×8 tile's L1-resident
		// rate, BENCH_gemm.json). MC is the multiple of 6 nearest 128.
		DefaultTile = TileConfig{MC: 120, KC: 256, MR: 6, NR: 16}
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

// kern6x16 runs the 6×16 tile on the fastest available path.
func kern6x16(kc int, ap, bp, c []float32, ldc int, first bool) {
	if useAVX2FMA && kc > 0 {
		kern6x16fma(kc, &ap[0], &bp[0], &c[0], ldc, first)
		return
	}
	kernTile(6, 16, kc, ap, bp, c, ldc, first)
}

// kern8x8 has no amd64 assembly: the 8×8 tile runs the portable loop.
func kern8x8(kc int, ap, bp, c []float32, ldc int, first bool) {
	kernTile(8, 8, kc, ap, bp, c, ldc, first)
}
