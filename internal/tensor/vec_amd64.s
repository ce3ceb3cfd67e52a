//go:build amd64

#include "textflag.h"

// AVX2 elementwise kernels (see vec.go for their contracts). Along each
// row each runs 8-wide YMM steps, then one 4-wide XMM step if at least
// four elements remain, and leaves the row's last n&3 to the Go twin.
//
// MAXPS(S, A, B, T, D) writes max(A, B) into D, given the sign mask
// (0x80000000 per lane) in S; it clobbers A, B and T, and D may be A. It
// is the compiler's own sequence for Go's max — negate both, min twice,
// OR, negate back: VMINPS returns its second source when the first is
// not less (NaNs, equal zeros), so OR-ing the two mins makes any NaN win
// and min(−0, +0) = −0, i.e. max(+0, −0) = +0.
#define MAXPS(S, A, B, T, D) \
	VXORPS  A, S, A \
	VXORPS  B, S, B \
	VMINPS  B, A, T \
	VMINPS  A, T, D \
	VORPS   T, D, D \
	VXORPS  S, D, D

#define SIGNMASK \
	MOVL         $0x80000000, AX \
	VMOVD        AX, X15         \
	VBROADCASTSS X15, Y15

// func reluAVX2(dst, src *float32, n int)
//
// VCMPPS LT_OQ marks exactly the lanes with v < 0 (never −0 or NaN) and
// VANDNPS clears them.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y15, Y15, Y15
	CMPQ   CX, $16
	JLT    relu8

relu16:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VCMPPS  $0x11, Y15, Y0, Y2
	VCMPPS  $0x11, Y15, Y1, Y3
	VANDNPS Y0, Y2, Y0
	VANDNPS Y1, Y3, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     relu16

relu8:
	CMPQ    CX, $8
	JLT     relu4
	VMOVUPS (SI), Y0
	VCMPPS  $0x11, Y15, Y0, Y2
	VANDNPS Y0, Y2, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX

relu4:
	CMPQ    CX, $4
	JLT     reludone
	VMOVUPS (SI), X0
	VCMPPS  $0x11, X15, X0, X2
	VANDNPS X0, X2, X0
	VMOVUPS X0, (DI)

reludone:
	VZEROUPPER
	RET

// func maxRowsAVX2(dst, src *float32, rows, w, size, stride int)
//
// Columns [0, w&^3) of each of rows output rows: the running max down the
// size rows of its window, which starts stride rows below the last one's.
TEXT ·maxRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  rows+16(FP), R8
	MOVQ  w+24(FP), BX
	MOVQ  size+32(FP), R9
	MOVQ  stride+40(FP), R10
	SHLQ  $2, BX          // row bytes
	IMULQ BX, R10         // window step bytes
	MOVQ  BX, R11
	ANDQ  $-16, R11       // bytes of the columns covered
	SIGNMASK

mrrow:
	XORQ CX, CX

mr8:
	LEAQ    32(CX), AX
	CMPQ    AX, R11
	JGT     mr4
	LEAQ    (SI)(CX*1), DX
	VMOVUPS (DX), Y0
	MOVQ    R9, R12

mr8ky:
	DECQ    R12
	JZ      mr8store
	ADDQ    BX, DX
	VMOVUPS (DX), Y1
	MAXPS(Y15, Y0, Y1, Y2, Y0)
	JMP     mr8ky

mr8store:
	VMOVUPS Y0, (DI)(CX*1)
	MOVQ    AX, CX
	JMP     mr8

mr4:
	LEAQ    16(CX), AX
	CMPQ    AX, R11
	JGT     mrnext
	LEAQ    (SI)(CX*1), DX
	VMOVUPS (DX), X0
	MOVQ    R9, R12

mr4ky:
	DECQ    R12
	JZ      mr4store
	ADDQ    BX, DX
	VMOVUPS (DX), X1
	MAXPS(X15, X0, X1, X2, X0)
	JMP     mr4ky

mr4store:
	VMOVUPS X0, (DI)(CX*1)

mrnext:
	ADDQ BX, DI
	ADDQ R10, SI
	DECQ R8
	JNZ  mrrow
	VZEROUPPER
	RET

// func pairMaxAVX2(dst, src *float32, n int)
//
// Sixteen inputs de-interleave into their even and odd lanes with two
// VSHUFPS; within each 128-bit half that yields pairs 0,1,4,5 | 2,3,6,7,
// which VPERMPD restores to 0–7.
TEXT ·pairMaxAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SIGNMASK
	CMPQ CX, $8
	JLT  pair4

pair8:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y2
	VSHUFPS $0xDD, Y1, Y0, Y3
	MAXPS(Y15, Y2, Y3, Y4, Y5)
	VPERMPD $0xD8, Y5, Y5
	VMOVUPS Y5, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     pair8

pair4:
	CMPQ    CX, $4
	JLT     pairdone
	VMOVUPS (SI), X0
	VMOVUPS 16(SI), X1
	VSHUFPS $0x88, X1, X0, X2
	VSHUFPS $0xDD, X1, X0, X3
	MAXPS(X15, X2, X3, X4, X5)
	VMOVUPS X5, (DI)

pairdone:
	VZEROUPPER
	RET

// LERPSEL(A, B, W, T, Z) leaves in T the blend of a = A and b = B by the
// weights at (R12)/(R13) offset CX — wa·a + wb·b by two VMULPS and a
// VADDPS, never an FMA, so it rounds as the scalar expression — or a
// itself where wb == 0 (Z is zero); it clobbers B and W.
#define LERPSEL(A, B, W, T, Z) \
	VMOVUPS   (R13)(CX*1), W \
	VMULPS    (R12)(CX*1), A, T \
	VMULPS    W, B, B \
	VADDPS    B, T, T \
	VCMPPS    $0x00, Z, W, W \
	VBLENDVPS W, A, T, T

// lanes<> holds 0…7, the lane numbers a row shorter than a register masks
// its load by.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// func acrossAVX2(dst, src *float32, rows, n, w int, lo, hi *int32, wa, wb *float32)
//
// Columns [0, w&^3) of each of rows output rows, the row's input n floats
// on: a = src[lo] and b = src[hi] through LERPSEL. lo, hi, wa, wb and the
// output row share one byte offset. An input row of at most eight floats
// is loaded once, masked to its n lanes, and VPERMPS picks a and b from
// the register; a longer one is read by two gathers per step.
TEXT ·acrossAVX2(SB), NOSPLIT, $0-72
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   rows+16(FP), R8
	MOVQ   n+24(FP), R9
	MOVQ   w+32(FP), BX
	MOVQ   lo+40(FP), R10
	MOVQ   hi+48(FP), R11
	MOVQ   wa+56(FP), R12
	MOVQ   wb+64(FP), R13
	VXORPS Y7, Y7, Y7
	CMPQ   R9, $8
	JGT    gather
	VMOVD        R9, X8
	VPBROADCASTD X8, Y8
	VMOVDQU      lanes<>(SB), Y9
	VPCMPGTD     Y9, Y8, Y9 // the row's lanes: n > lane
	SHLQ   $2, R9           // input row bytes
	SHLQ   $2, BX           // output row bytes
	MOVQ   BX, DX
	ANDQ   $-16, DX         // bytes of the columns covered

prow:
	VMASKMOVPS (SI), Y9, Y10
	XORQ       CX, CX

p8:
	LEAQ    32(CX), AX
	CMPQ    AX, DX
	JGT     p4
	VMOVDQU (R10)(CX*1), Y4
	VMOVDQU (R11)(CX*1), Y5
	VPERMPS Y10, Y4, Y0
	VPERMPS Y10, Y5, Y1
	LERPSEL(Y0, Y1, Y3, Y2, Y7)
	VMOVUPS Y2, (DI)(CX*1)
	MOVQ    AX, CX
	JMP     p8

p4:
	LEAQ    16(CX), AX
	CMPQ    AX, DX
	JGT     pnext
	VMOVDQU (R10)(CX*1), X4 // the upper indices clear to 0; those lanes go unused
	VMOVDQU (R11)(CX*1), X5
	VPERMPS Y10, Y4, Y0
	VPERMPS Y10, Y5, Y1
	LERPSEL(X0, X1, X3, X2, X7)
	VMOVUPS X2, (DI)(CX*1)

pnext:
	ADDQ BX, DI
	ADDQ R9, SI
	DECQ R8
	JNZ  prow
	VZEROUPPER
	RET

gather:
	SHLQ $2, R9
	SHLQ $2, BX
	MOVQ BX, DX
	ANDQ $-16, DX

grow:
	XORQ CX, CX

g8:
	LEAQ       32(CX), AX
	CMPQ       AX, DX
	JGT        g4
	VMOVDQU    (R10)(CX*1), Y4
	VMOVDQU    (R11)(CX*1), Y5
	VPCMPEQD   Y6, Y6, Y6
	VGATHERDPS Y6, (SI)(Y4*4), Y0
	VPCMPEQD   Y6, Y6, Y6
	VGATHERDPS Y6, (SI)(Y5*4), Y1
	LERPSEL(Y0, Y1, Y3, Y2, Y7)
	VMOVUPS    Y2, (DI)(CX*1)
	MOVQ       AX, CX
	JMP        g8

g4:
	LEAQ       16(CX), AX
	CMPQ       AX, DX
	JGT        gnext
	VMOVDQU    (R10)(CX*1), X4
	VMOVDQU    (R11)(CX*1), X5
	VPCMPEQD   X6, X6, X6
	VGATHERDPS X6, (SI)(X4*4), X0
	VPCMPEQD   X6, X6, X6
	VGATHERDPS X6, (SI)(X5*4), X1
	LERPSEL(X0, X1, X3, X2, X7)
	VMOVUPS    X2, (DI)(CX*1)

gnext:
	ADDQ BX, DI
	ADDQ R9, SI
	DECQ R8
	JNZ  grow
	VZEROUPPER
	RET

// func downAVX2(dst, src *float32, rows, w int, lo, hi *int32, wa, wb *float32)
//
// Columns [0, w&^3) of each of rows output rows, last row first: a copy
// of input row lo where wb == 0 (NewLerp stores +0 there, so an integer
// test suffices), else wa·row lo + wb·row hi by two VMULPS and a VADDPS.
// DX holds the covered bytes less 32, the last offset an 8-wide step may
// start at; after those steps one 4-wide step remains exactly when the
// offset is DX+16.
TEXT ·downAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ w+24(FP), BX
	MOVQ lo+32(FP), R10
	MOVQ hi+40(FP), R11
	MOVQ wa+48(FP), R12
	MOVQ wb+56(FP), R13
	SHLQ $2, BX         // row bytes
	MOVQ BX, DX
	ANDQ $-16, DX
	SUBQ $32, DX
	LEAQ -1(R8), AX     // point every cursor at the last row
	SHLQ $2, AX
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ AX, R13
	LEAQ -1(R8), AX
	IMULQ BX, AX
	ADDQ AX, DI

dnrow:
	MOVLQSX (R10), AX
	IMULQ   BX, AX
	ADDQ    SI, AX      // input row lo
	XORQ    CX, CX
	CMPL    (R13), $0
	JEQ     dncopy8
	MOVLQSX (R11), R9
	IMULQ   BX, R9
	ADDQ    SI, R9      // input row hi
	VBROADCASTSS (R12), Y14
	VBROADCASTSS (R13), Y13

dnblend8:
	CMPQ    CX, DX
	JGT     dnblend4
	VMULPS  (AX)(CX*1), Y14, Y0
	VMULPS  (R9)(CX*1), Y13, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(CX*1)
	ADDQ    $32, CX
	JMP     dnblend8

dnblend4:
	SUBQ    $16, CX
	CMPQ    CX, DX
	JNE     dnnext
	VMULPS  16(AX)(CX*1), X14, X0
	VMULPS  16(R9)(CX*1), X13, X1
	VADDPS  X1, X0, X0
	VMOVUPS X0, 16(DI)(CX*1)
	JMP     dnnext

dncopy8:
	CMPQ    CX, DX
	JGT     dncopy4
	VMOVUPS (AX)(CX*1), Y0
	VMOVUPS Y0, (DI)(CX*1)
	ADDQ    $32, CX
	JMP     dncopy8

dncopy4:
	SUBQ    $16, CX
	CMPQ    CX, DX
	JNE     dnnext
	VMOVUPS 16(AX)(CX*1), X0
	VMOVUPS X0, 16(DI)(CX*1)

dnnext:
	SUBQ BX, DI
	SUBQ $4, R10
	SUBQ $4, R11
	SUBQ $4, R12
	SUBQ $4, R13
	DECQ R8
	JNZ  dnrow
	VZEROUPPER
	RET
