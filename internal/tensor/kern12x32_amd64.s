//go:build amd64

#include "textflag.h"

// AVX-512F 12×32 micro-kernel: kern6x16_amd64.s on 16-float ZMM registers
// with twice the rows — twenty-four accumulators, two B halves (Z24, Z25)
// and twelve broadcasts per k step, the same store/add epilogue, so each C
// element is the 6×16's FMA chain bit for bit. VPXORD zeroes: VXORPS on
// ZMM needs AVX512DQ.

#define ZERO4(R0, R1, R2, R3) \
	VPXORD R0, R0, R0 \
	VPXORD R1, R1, R1 \
	VPXORD R2, R2, R2 \
	VPXORD R3, R3, R3

#define ROW(off, A, LO, HI) \
	VBROADCASTSS off(SI), A \
	VFMADD231PS  Z24, A, LO \
	VFMADD231PS  Z25, A, HI

#define STORE(LO, HI) \
	VMOVUPS LO, (DX) \
	VMOVUPS HI, 64(DX) \
	ADDQ    BX, DX

#define ADD(LO, HI) \
	VADDPS (DX), LO, LO \
	VADDPS 64(DX), HI, HI \
	STORE(LO, HI)

// func kern12x32avx512(kc int, ap, bp, c *float32, ldc int, first bool)
TEXT ·kern12x32avx512(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), BX
	ZERO4(Z0, Z1, Z2, Z3); ZERO4(Z4, Z5, Z6, Z7); ZERO4(Z8, Z9, Z10, Z11)
	ZERO4(Z12, Z13, Z14, Z15); ZERO4(Z16, Z17, Z18, Z19); ZERO4(Z20, Z21, Z22, Z23)
	SHLQ $2, BX // ldc in bytes

loop:
	VMOVUPS (DI), Z24
	VMOVUPS 64(DI), Z25
	ROW(0, Z26, Z0, Z1)
	ROW(4, Z27, Z2, Z3)
	ROW(8, Z28, Z4, Z5)
	ROW(12, Z29, Z6, Z7)
	ROW(16, Z30, Z8, Z9)
	ROW(20, Z31, Z10, Z11)
	ROW(24, Z26, Z12, Z13)
	ROW(28, Z27, Z14, Z15)
	ROW(32, Z28, Z16, Z17)
	ROW(36, Z29, Z18, Z19)
	ROW(40, Z30, Z20, Z21)
	ROW(44, Z31, Z22, Z23)
	ADDQ $48, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  loop

	MOVBLZX first+40(FP), AX
	TESTB   AX, AX
	JZ      acc

	STORE(Z0, Z1); STORE(Z2, Z3); STORE(Z4, Z5); STORE(Z6, Z7)
	STORE(Z8, Z9); STORE(Z10, Z11); STORE(Z12, Z13); STORE(Z14, Z15)
	STORE(Z16, Z17); STORE(Z18, Z19); STORE(Z20, Z21); STORE(Z22, Z23)
	VZEROUPPER
	RET

acc:
	ADD(Z0, Z1); ADD(Z2, Z3); ADD(Z4, Z5); ADD(Z6, Z7)
	ADD(Z8, Z9); ADD(Z10, Z11); ADD(Z12, Z13); ADD(Z14, Z15)
	ADD(Z16, Z17); ADD(Z18, Z19); ADD(Z20, Z21); ADD(Z22, Z23)
	VZEROUPPER
	RET
