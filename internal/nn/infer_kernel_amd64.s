//go:build amd64

#include "textflag.h"

// func layerPreSIMD(blocks, x, h, pre, out *float64, nx, nh, groups, xoff, blkBytes int64)
//
// Computes gate pre-activations for groups*4 hidden units of one layer
// step. Four unit blocks are processed per outer iteration, one ymm
// accumulator each; within a block the four f64 lanes are the unit's
// four gate rows (i|f|g|o), matching the unit-interleaved packed layout,
// so each weight column k is a single 32-byte load.
//
// Bitwise contract: per lane the accumulation is init, then input terms
// in ascending k, then recurrent terms in ascending k, each as a
// separate VMULPD + VADDPD (never FMA: its single rounding differs from
// the scalar multiply-then-add), i.e. exactly gatePreScalar's chain.
//
// Register map:
//   R8-R11  the four unit-block cursors; weights are contiguous within a
//           block, so they advance 32 bytes per column and finish each
//           iteration at the next block — R11 lands on the next group.
//   SI, DI  x, h base pointers
//   AX      pre cursor (nil: accumulators start from the packed biases)
//   DX      out cursor
//   BX, R12 nx, nh
//   R13     remaining groups
//   R14     xoff (first non-pre-projected input column)
//   R15     blkBytes
//   CX      column counter / scratch
//   Y0-Y3   accumulators, Y4 broadcast column value, Y5-Y8 weight quads
TEXT ·layerPreSIMD(SB), NOSPLIT, $0-80
	MOVQ blocks+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ h+16(FP), DI
	MOVQ pre+24(FP), AX
	MOVQ out+32(FP), DX
	MOVQ nx+40(FP), BX
	MOVQ nh+48(FP), R12
	MOVQ groups+56(FP), R13
	MOVQ xoff+64(FP), R14
	MOVQ blkBytes+72(FP), R15

group:
	TESTQ R13, R13
	JZ    done

	// Cursors for the group's four unit blocks.
	MOVQ R8, R9
	ADDQ R15, R9
	MOVQ R9, R10
	ADDQ R15, R10
	MOVQ R10, R11
	ADDQ R15, R11

	// Accumulator init: pre-projected partials if pre != nil, else the
	// biases at the head of each block.
	TESTQ AX, AX
	JZ    frombias
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	ADDQ    $128, AX
	JMP     accready

frombias:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3

accready:
	// Skip the bias quad and the pre-projected input columns [0, xoff).
	MOVQ R14, CX
	SHLQ $5, CX
	ADDQ $32, CX
	ADDQ CX, R8
	ADDQ CX, R9
	ADDQ CX, R10
	ADDQ CX, R11

	// Input terms, k = xoff .. nx-1 (ascending).
	MOVQ R14, CX
xloop:
	CMPQ CX, BX
	JGE  xdone
	VBROADCASTSD (SI)(CX*8), Y4
	VMOVUPD      (R8), Y5
	VMOVUPD      (R9), Y6
	VMOVUPD      (R10), Y7
	VMOVUPD      (R11), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	ADDQ         $32, R11
	INCQ         CX
	JMP          xloop

xdone:
	// Recurrent terms, k = 0 .. nh-1 (ascending).
	XORQ CX, CX
hloop:
	CMPQ CX, R12
	JGE  hdone
	VBROADCASTSD (DI)(CX*8), Y4
	VMOVUPD      (R8), Y5
	VMOVUPD      (R9), Y6
	VMOVUPD      (R10), Y7
	VMOVUPD      (R11), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	ADDQ         $32, R11
	INCQ         CX
	JMP          hloop

hdone:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ    $128, DX

	// R11 has walked exactly one block past its start, i.e. onto the
	// next group's first block.
	MOVQ R11, R8
	DECQ R13
	JMP  group

done:
	VZEROUPPER
	RET

// func layerGradSIMD(grad, x, h, dq *float64, nx, nh, groups, blkBytes int64)
//
// Accumulates one step's weight gradients for groups*4 hidden units. Four
// unit blocks of the packed gradient are walked per outer iteration, with
// each unit's gate-gradient quad held in one ymm register; lane g is gate
// row g, matching the packed layout, so each column k of a unit is one
// 32-byte read-modify-write: quad += broadcast(v[k])·dq.
//
// Bitwise contract: every element takes one VMULPD and one VADDPD (never
// FMA), i.e. exactly gradAdd's scalar multiply-then-add.
//
// Register map:
//   R8-R11  the four unit-block cursors (as in layerPreSIMD)
//   SI, DI  x, h base pointers
//   AX      dq cursor
//   BX, R12 nx, nh
//   R13     remaining groups
//   R15     blkBytes
//   CX      column counter
//   Y0-Y3   the four units' gate-gradient quads, Y4 broadcast column
//           value, Y5-Y8 products / updated gradient quads
TEXT ·layerGradSIMD(SB), NOSPLIT, $0-64
	MOVQ grad+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ h+16(FP), DI
	MOVQ dq+24(FP), AX
	MOVQ nx+32(FP), BX
	MOVQ nh+40(FP), R12
	MOVQ groups+48(FP), R13
	MOVQ blkBytes+56(FP), R15

ggroup:
	TESTQ R13, R13
	JZ    gdone

	MOVQ R8, R9
	ADDQ R15, R9
	MOVQ R9, R10
	ADDQ R15, R10
	MOVQ R10, R11
	ADDQ R15, R11

	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	ADDQ    $128, AX

	// Bias quads.
	VADDPD  (R8), Y0, Y5
	VADDPD  (R9), Y1, Y6
	VADDPD  (R10), Y2, Y7
	VADDPD  (R11), Y3, Y8
	VMOVUPD Y5, (R8)
	VMOVUPD Y6, (R9)
	VMOVUPD Y7, (R10)
	VMOVUPD Y8, (R11)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11

	// Input columns, k = 0 .. nx-1.
	XORQ CX, CX
gxloop:
	CMPQ CX, BX
	JGE  gxdone
	VBROADCASTSD (SI)(CX*8), Y4
	VMULPD       Y4, Y0, Y5
	VMULPD       Y4, Y1, Y6
	VMULPD       Y4, Y2, Y7
	VMULPD       Y4, Y3, Y8
	VADDPD       (R8), Y5, Y5
	VADDPD       (R9), Y6, Y6
	VADDPD       (R10), Y7, Y7
	VADDPD       (R11), Y8, Y8
	VMOVUPD      Y5, (R8)
	VMOVUPD      Y6, (R9)
	VMOVUPD      Y7, (R10)
	VMOVUPD      Y8, (R11)
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	ADDQ         $32, R11
	INCQ         CX
	JMP          gxloop

gxdone:
	// Recurrent columns, k = 0 .. nh-1.
	XORQ CX, CX
ghloop:
	CMPQ CX, R12
	JGE  ghdone
	VBROADCASTSD (DI)(CX*8), Y4
	VMULPD       Y4, Y0, Y5
	VMULPD       Y4, Y1, Y6
	VMULPD       Y4, Y2, Y7
	VMULPD       Y4, Y3, Y8
	VADDPD       (R8), Y5, Y5
	VADDPD       (R9), Y6, Y6
	VADDPD       (R10), Y7, Y7
	VADDPD       (R11), Y8, Y8
	VMOVUPD      Y5, (R8)
	VMOVUPD      Y6, (R9)
	VMOVUPD      Y7, (R10)
	VMOVUPD      Y8, (R11)
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	ADDQ         $32, R11
	INCQ         CX
	JMP          ghloop

ghdone:
	MOVQ R11, R8
	DECQ R13
	JMP  ggroup

gdone:
	VZEROUPPER
	RET

// func inputGradSIMD(w, dq, dst *float64, n, units, blkBytes int64)
//
// Sums gate gradients back through the weights into one input of a step:
// dst[k] += dq[4j+g]·W(j,g)[k] for k < n, over rows in the blocked order
// r = g·units + j (gate-major), skipping rows whose gradient is exactly
// zero. w points at column 0, gate 0 of unit 0's columns of interest
// (the input or the recurrent columns); column k of gate g of unit j is at
// w + j·blkBytes + 32k + 8g, so a row is read strided, four columns at a
// time assembled into one ymm.
//
// Bitwise contract: each dst element takes its terms in row order, each as
// one multiply and one add (never FMA) — exactly inputGrad's scalar loop.
//
// Register map:
//   SI      w;  AX  dq;  DI  dst;  BX  n;  R12  units;  R15  blkBytes
//   R13     gate g;  R14  remaining units
//   R8      row cursor (column 0 of the current unit and gate)
//   R9      dq cursor (the current unit's gate-g gradient)
//   R10     column cursor;  R11  dst cursor;  CX  remaining columns
//   X7      zero;  Y4  broadcast row gradient;  Y5, Y6  columns
TEXT ·inputGradSIMD(SB), NOSPLIT, $0-48
	MOVQ   w+0(FP), SI
	MOVQ   dq+8(FP), AX
	MOVQ   dst+16(FP), DI
	MOVQ   n+24(FP), BX
	MOVQ   units+32(FP), R12
	MOVQ   blkBytes+40(FP), R15
	VXORPD X7, X7, X7
	XORQ   R13, R13

igate:
	CMPQ R13, $4
	JGE  idone
	LEAQ (SI)(R13*8), R8
	LEAQ (AX)(R13*8), R9
	MOVQ R12, R14

iunit:
	TESTQ    R14, R14
	JZ       iunitdone
	VMOVSD   (R9), X4
	VUCOMISD X7, X4
	JNE      irow
	JPS      irow     // NaN is not zero
	JMP      inext

irow:
	VBROADCASTSD (R9), Y4
	MOVQ         R8, R10
	MOVQ         DI, R11
	MOVQ         BX, CX

iquad:
	CMPQ        CX, $4
	JLT         itail
	VMOVSD      (R10), X5
	VMOVHPD     32(R10), X5, X5
	VMOVSD      64(R10), X6
	VMOVHPD     96(R10), X6, X6
	VINSERTF128 $1, X6, Y5, Y5
	VMULPD      Y4, Y5, Y5
	VADDPD      (R11), Y5, Y5
	VMOVUPD     Y5, (R11)
	ADDQ        $128, R10
	ADDQ        $32, R11
	SUBQ        $4, CX
	JMP         iquad

itail:
	TESTQ  CX, CX
	JZ     inext
	VMOVSD (R10), X5
	VMULSD X4, X5, X5
	VADDSD (R11), X5, X5
	VMOVSD X5, (R11)
	ADDQ   $32, R10
	ADDQ   $8, R11
	DECQ   CX
	JMP    itail

inext:
	ADDQ R15, R8
	ADDQ $32, R9
	DECQ R14
	JMP  iunit

iunitdone:
	INCQ R13
	JMP  igate

idone:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// CPUID.1:ECX must report OSXSAVE+AVX, XCR0 must have XMM+YMM state
// enabled, and CPUID.7.0:EBX must report AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JNC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
