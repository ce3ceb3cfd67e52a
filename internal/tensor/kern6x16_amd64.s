//go:build amd64

#include "textflag.h"

// AVX2+FMA 6×16 micro-kernel. Twelve YMM accumulators hold the full
// 6×16 C tile (two per row), twelve independent FMA chains — enough to
// cover the FMA latency at two issues per cycle. Each k step loads the
// packed-B group as two 8-float halves, broadcasts the six packed-A
// values and issues twelve fused multiply-adds. The epilogue writes the
// tile to C once — stores when first, vector adds otherwise — matching
// the Go kernels' one-pass-per-KC-panel accumulation tree (FMA rounds
// once per multiply-add, so agreement with the portable kernel is
// tolerance-level, not exact).

// ROW(off, A, LO, HI) broadcasts the packed-A value off bytes into the
// k group into A and adds its products with the two B halves (Y12, Y13)
// into one C row's accumulators.
#define ROW(off, A, LO, HI) \
	VBROADCASTSS off(SI), A \
	VFMADD231PS  Y12, A, LO \
	VFMADD231PS  Y13, A, HI

// STORE and ADD write one C row's accumulators to (DX) — over it, or
// added to it — and step DX to the next row.
#define STORE(LO, HI) \
	VMOVUPS LO, (DX) \
	VMOVUPS HI, 32(DX) \
	ADDQ    BX, DX

#define ADD(LO, HI) \
	VADDPS  (DX), LO, LO \
	VADDPS  32(DX), HI, HI \
	STORE(LO, HI)

// func kern6x16fma(kc int, ap, bp, c *float32, ldc int, first bool)
TEXT ·kern6x16fma(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), BX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	SHLQ $2, BX // ldc in bytes

loop:
	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	ROW(0, Y14, Y0, Y1)
	ROW(4, Y15, Y2, Y3)
	ROW(8, Y14, Y4, Y5)
	ROW(12, Y15, Y6, Y7)
	ROW(16, Y14, Y8, Y9)
	ROW(20, Y15, Y10, Y11)
	ADDQ $24, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

	MOVBLZX first+40(FP), AX
	TESTB   AX, AX
	JZ      acc

	STORE(Y0, Y1)
	STORE(Y2, Y3)
	STORE(Y4, Y5)
	STORE(Y6, Y7)
	STORE(Y8, Y9)
	STORE(Y10, Y11)
	VZEROUPPER
	RET

acc:
	ADD(Y0, Y1)
	ADD(Y2, Y3)
	ADD(Y4, Y5)
	ADD(Y6, Y7)
	ADD(Y8, Y9)
	ADD(Y10, Y11)
	VZEROUPPER
	RET

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
