//go:build amd64

package tensor

// The amd64 SIMD register tiles: on hosts with AVX2+FMA the 6×16 runs
// kern6x16_amd64.s (twelve 8-float YMM accumulators hold the whole C
// tile), and on hosts that also have AVX-512F the 12×32 runs
// kern12x32_amd64.s (twenty-four 16-float ZMM accumulators). Detection is
// done once via CPUID/XGETBV; anything missing falls back to the portable
// kernTile loop.

// kern6x16fma is the AVX2+FMA kernel in kern6x16_amd64.s. kc must be >= 1.
//
//go:noescape
func kern6x16fma(kc int, ap, bp, c *float32, ldc int, first bool)

// kern12x32avx512 is the AVX-512F kernel in kern12x32_amd64.s. kc >= 1.
//
//go:noescape
func kern12x32avx512(kc int, ap, bp, c *float32, ldc int, first bool)

// cpuidex and xgetbv0 (kern6x16_amd64.s) expose the CPUID leaf and
// extended-control-register reads the feature probe needs.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2FMA/hasAVX512 record the probes; useAVX2FMA gates the 6×16 and
// vec_amd64.s, useAVX512 the 12×32, and tests flip them to compare the
// SIMD and portable kernels on the same host.
var (
	hasAVX2FMA = detectFMA()
	hasAVX512  = hasAVX2FMA && detectAVX512()
	useAVX2FMA = hasAVX2FMA
	useAVX512  = hasAVX512
)

// SetSIMD turns the assembly kernels on (where the host has them) or off
// and reports whether they were on, so that other packages' tests can run
// their layers on the portable kernels too. It is not safe to call while
// any kernel runs.
func SetSIMD(on bool) (was bool) {
	was, useAVX2FMA, useAVX512 = useAVX2FMA, on && hasAVX2FMA, on && hasAVX512
	return was
}

// init is the one place the amd64 tile is chosen: the widest the host
// runs (the 12×32 reads ≈ 1.7× the 6×16's L1-resident rate,
// BENCH_gemm.json). MC = 120 is the multiple of 6 and 12 nearest 128; KC,
// and so every output's rounding, is the same under both tiles.
func init() {
	switch {
	case useAVX512:
		DefaultTile = TileConfig{MC: 120, KC: 256, MR: 12, NR: 32}
	case useAVX2FMA:
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

// detectAVX512 reports AVX-512F (CPUID.7.0:EBX bit 16) and OS-saved XMM,
// YMM, opmask and ZMM state (XCR0 0xE6), after detectFMA's checks.
func detectAVX512() bool {
	_, b7, _, _ := cpuidex(7, 0)
	xlo, _ := xgetbv0()
	return b7&(1<<16) != 0 && xlo&0xE6 == 0xE6
}

// kern6x16 runs the 6×16 tile on the fastest available path.
func kern6x16(kc int, ap, bp, c []float32, ldc int, first bool) {
	if useAVX2FMA && kc > 0 {
		kern6x16fma(kc, &ap[0], &bp[0], &c[0], ldc, first)
		return
	}
	kernTile(6, 16, kc, ap, bp, c, ldc, first)
}

// kern12x32 runs the 12×32 tile on the fastest available path.
func kern12x32(kc int, ap, bp, c []float32, ldc int, first bool) {
	if useAVX512 && kc > 0 {
		kern12x32avx512(kc, &ap[0], &bp[0], &c[0], ldc, first)
		return
	}
	kernTile(12, 32, kc, ap, bp, c, ldc, first)
}

// kern8x8 has no amd64 assembly: the 8×8 tile runs the portable loop.
func kern8x8(kc int, ap, bp, c []float32, ldc int, first bool) {
	kernTile(8, 8, kc, ap, bp, c, ldc, first)
}
