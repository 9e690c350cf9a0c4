//go:build amd64

#include "textflag.h"

// func layerPreSIMD(blocks *float32, x, h, pre, out *float64, nx, nh, groups, xoff, blkBytes int64)
//
// Computes gate pre-activations for groups*4 hidden units of one layer
// step. Four unit blocks are processed per outer iteration, one ymm
// accumulator each; within a block the four f64 lanes are the unit's
// four gate rows (i|f|g|o), matching the unit-interleaved packed layout,
// so each weight column k is a single 16-byte float32 quad, which
// VCVTPS2PD loads and widens exactly into four float64 lanes.
//
// Bitwise contract: per lane the accumulation is init, then input terms
// in ascending k, then recurrent terms in ascending k, each as a
// separate VMULPD + VADDPD on the widened weight (never FMA: its single
// rounding differs from the scalar multiply-then-add), i.e. exactly
// gatePreScalar's chain.
//
// Register map:
//   R8-R11  the group's four unit-block bases, moved past the biases and
//           then past the input columns, so column k of the current
//           section is at base + 16k
//   CX      twice the column index: one register indexes x and h
//           (CX*4 = 8k) and all four blocks' columns (CX*8 = 16k)
//   SI, DI  x, h base pointers
//   AX      pre cursor (nil: accumulators start from the packed biases)
//   DX      out cursor
//   BX, R12 2·nx, 2·nh
//   R13     remaining groups
//   R14     2·xoff (first non-pre-projected input column)
//   R15     blkBytes
//   Y0-Y3   accumulators, Y4 broadcast column value, Y5-Y8 weight quads
TEXT ·layerPreSIMD(SB), NOSPLIT, $0-80
	MOVQ blocks+0(FP), R8
	MOVQ x+8(FP), SI
	MOVQ h+16(FP), DI
	MOVQ pre+24(FP), AX
	MOVQ out+32(FP), DX
	MOVQ nx+40(FP), BX
	SHLQ $1, BX
	MOVQ nh+48(FP), R12
	SHLQ $1, R12
	MOVQ groups+56(FP), R13
	MOVQ xoff+64(FP), R14
	SHLQ $1, R14
	MOVQ blkBytes+72(FP), R15

group:
	TESTQ R13, R13
	JZ    done

	// Bases of the group's four unit blocks.
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
	VCVTPS2PD (R8), Y0
	VCVTPS2PD (R9), Y1
	VCVTPS2PD (R10), Y2
	VCVTPS2PD (R11), Y3

accready:
	// Past the bias quads: input column k is at base + 16k.
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11

	// Input terms, k = xoff .. nx-1 (ascending).
	MOVQ R14, CX
xloop:
	CMPQ CX, BX
	JGE  xdone
	VBROADCASTSD (SI)(CX*4), Y4
	VCVTPS2PD    (R8)(CX*8), Y5
	VCVTPS2PD    (R9)(CX*8), Y6
	VCVTPS2PD    (R10)(CX*8), Y7
	VCVTPS2PD    (R11)(CX*8), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $2, CX
	JMP          xloop

xdone:
	// Past the input columns: recurrent column k is at base + 16k.
	LEAQ (R8)(BX*8), R8
	LEAQ (R9)(BX*8), R9
	LEAQ (R10)(BX*8), R10
	LEAQ (R11)(BX*8), R11

	// Recurrent terms, k = 0 .. nh-1 (ascending).
	XORQ CX, CX
hloop:
	CMPQ CX, R12
	JGE  hdone
	VBROADCASTSD (DI)(CX*4), Y4
	VCVTPS2PD    (R8)(CX*8), Y5
	VCVTPS2PD    (R9)(CX*8), Y6
	VCVTPS2PD    (R10)(CX*8), Y7
	VCVTPS2PD    (R11)(CX*8), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $2, CX
	JMP          hloop

hdone:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ    $128, DX

	// The last block ends 16·nh bytes past R11, where the next group's
	// first block starts.
	LEAQ (R11)(R12*8), R8
	DECQ R13
	JMP  group

done:
	VZEROUPPER
	RET

// func gradAccSIMD(grad, dq, v *float64, units, n, steps int64)
//
// Adds a block of steps' weight gradients to a layer's packed float64
// gradient: for every unit j and column c < n, with dq_t the unit's
// gate-gradient quad in step t's row of dq (4·units values per step)
// and v_t[c] element c of step t's row of v (n values per step),
//
//	grad[4n·j + 4c : +4] += dq_t · v_t[c]   for t = steps−1 down to 0.
//
// The gradient is walked in tiles of one unit × 12 columns (then 4, then
// 1): a tile's quads stay in registers for the whole block of steps, so
// the gradient is read and written once per block, not once per step.
// Column tiles are the outer loop and units the inner one, so a tile's
// slice of the input rows (steps × 96 bytes) stays in L1 while every
// unit takes its turn at it; a unit's gate gradients are one quad per
// step.
//
// Bitwise contract: per element the terms come in descending t, each as
// one VMULPD with the gate gradient as its first operand and one VADDPD
// with the product as its first (never FMA): gradAcc's scalar loop.
//
// Register map:
//   DI      the tile's gradient quads in unit 0
//   DX      the tile's first column in the last step's v row
//   SI      the last step's dq row;  R12  units;  R13  steps
//   R14     dq row bytes (32·units);  R15  v row bytes (8n)
//   BX      columns left;  R8  units left
//   R9      the tile's gradient quads in the current unit
//   CX      the current unit's quad in the last step's dq row
//   R10     dq cursor;  R11  v cursor;  AX  steps left
//   Y0–Y11  the tile's gradient quads, Y12 gate gradients, Y13 products
TEXT ·gradAccSIMD(SB), NOSPLIT, $0-48
	MOVQ grad+0(FP), DI
	MOVQ dq+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ units+24(FP), R12
	MOVQ n+32(FP), BX
	MOVQ steps+40(FP), R13
	MOVQ R12, R14
	SHLQ $5, R14
	MOVQ BX, R15
	SHLQ $3, R15

	// Start at the last step's rows.
	LEAQ -1(R13), AX
	MOVQ AX, CX
	IMULQ R14, AX
	ADDQ AX, SI
	IMULQ R15, CX
	ADDQ CX, DX

g12tile:
	CMPQ BX, $12
	JLT  g12done
	MOVQ DI, R9
	MOVQ SI, CX
	MOVQ R12, R8

g12unit:
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	VMOVUPD 128(R9), Y4
	VMOVUPD 160(R9), Y5
	VMOVUPD 192(R9), Y6
	VMOVUPD 224(R9), Y7
	VMOVUPD 256(R9), Y8
	VMOVUPD 288(R9), Y9
	VMOVUPD 320(R9), Y10
	VMOVUPD 352(R9), Y11
	MOVQ CX, R10
	MOVQ DX, R11
	MOVQ R13, AX

g12step:
	VMOVUPD (R10), Y12
	VBROADCASTSD 0(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y0, Y13, Y0
	VBROADCASTSD 8(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y1, Y13, Y1
	VBROADCASTSD 16(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y2, Y13, Y2
	VBROADCASTSD 24(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y3, Y13, Y3
	VBROADCASTSD 32(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y4, Y13, Y4
	VBROADCASTSD 40(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y5, Y13, Y5
	VBROADCASTSD 48(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y6, Y13, Y6
	VBROADCASTSD 56(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y7, Y13, Y7
	VBROADCASTSD 64(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y8, Y13, Y8
	VBROADCASTSD 72(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y9, Y13, Y9
	VBROADCASTSD 80(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y10, Y13, Y10
	VBROADCASTSD 88(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y11, Y13, Y11
	SUBQ R14, R10
	SUBQ R15, R11
	DECQ AX
	JNZ  g12step
	VMOVUPD Y0, 0(R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	VMOVUPD Y3, 96(R9)
	VMOVUPD Y4, 128(R9)
	VMOVUPD Y5, 160(R9)
	VMOVUPD Y6, 192(R9)
	VMOVUPD Y7, 224(R9)
	VMOVUPD Y8, 256(R9)
	VMOVUPD Y9, 288(R9)
	VMOVUPD Y10, 320(R9)
	VMOVUPD Y11, 352(R9)
	ADDQ $32, CX
	LEAQ (R9)(R15*4), R9
	DECQ R8
	JNZ  g12unit

	ADDQ $384, DI
	ADDQ $96, DX
	SUBQ $12, BX
	JMP  g12tile

g12done:
g4tile:
	CMPQ BX, $4
	JLT  g4done
	MOVQ DI, R9
	MOVQ SI, CX
	MOVQ R12, R8

g4unit:
	VMOVUPD 0(R9), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 64(R9), Y2
	VMOVUPD 96(R9), Y3
	MOVQ CX, R10
	MOVQ DX, R11
	MOVQ R13, AX

g4step:
	VMOVUPD (R10), Y12
	VBROADCASTSD 0(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y0, Y13, Y0
	VBROADCASTSD 8(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y1, Y13, Y1
	VBROADCASTSD 16(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y2, Y13, Y2
	VBROADCASTSD 24(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y3, Y13, Y3
	SUBQ R14, R10
	SUBQ R15, R11
	DECQ AX
	JNZ  g4step
	VMOVUPD Y0, 0(R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	VMOVUPD Y3, 96(R9)
	ADDQ $32, CX
	LEAQ (R9)(R15*4), R9
	DECQ R8
	JNZ  g4unit

	ADDQ $128, DI
	ADDQ $32, DX
	SUBQ $4, BX
	JMP  g4tile

g4done:
g1tile:
	CMPQ BX, $1
	JLT  g1done
	MOVQ DI, R9
	MOVQ SI, CX
	MOVQ R12, R8

g1unit:
	VMOVUPD 0(R9), Y0
	MOVQ CX, R10
	MOVQ DX, R11
	MOVQ R13, AX

g1step:
	VMOVUPD (R10), Y12
	VBROADCASTSD 0(R11), Y13
	VMULPD       Y13, Y12, Y13
	VADDPD       Y0, Y13, Y0
	SUBQ R14, R10
	SUBQ R15, R11
	DECQ AX
	JNZ  g1step
	VMOVUPD Y0, 0(R9)
	ADDQ $32, CX
	LEAQ (R9)(R15*4), R9
	DECQ R8
	JNZ  g1unit

	ADDQ $32, DI
	ADDQ $8, DX
	SUBQ $1, BX
	JMP  g1tile

g1done:
	VZEROUPPER
	RET

// func inputGradTSIMD(img *float32, dq, dst *float64, cols, rowBytes, units int64)
//
// Sums gate gradients back through a layer's weights into one step's
// input and previous h: dst[k] = Σ_r dq(r)·W(r)[k] for k < cols, over
// rows in the blocked order r = g·units + j (gate-major), skipping rows
// whose gradient is ±0 (NaN is not skipped). dq(r) is dq[4j+g], the
// unit-major quads of the recursion; W(r) is row r of the transposed
// weight image (transposeInto), rowBytes apart, whose first column of
// interest img points at. dst is held in registers across all 4·units
// rows in blocks of 32 columns (Y0–Y3, Y10–Y13), then 16 (Y0–Y3), then
// 4 (Y0), then 1 (X0), so each row is read contiguously and dst is
// stored once. A 32-column block halves the passes over the image that
// 16-column ones make (H = 256: ≈106 → ≈70 µs a call).
//
// Bitwise contract: each dst element starts at +0 and takes its terms in
// row order, each as one VMULPD of the widened weight (first operand)
// by the row's gradient and one VADDPD with the product as its first
// operand (never FMA): inputGrad's scalar loop.
//
// Register map:
//   SI      the block's first column in row 0;  AX  dq;  DI  dst cursor
//   BX      columns left;  R15  rowBytes;  R12  units
//   R13     gate g;  R14  units left in the gate
//   R8      row cursor;  R9  dq cursor (dq[4j+g])
//   X15     zero;  Y4  broadcast row gradient;  Y5, Y6, Y8, Y9  products
//   Y0–Y3, Y10–Y13  the block's dst accumulators
TEXT ·inputGradTSIMD(SB), NOSPLIT, $0-48
	MOVQ   img+0(FP), SI
	MOVQ   dq+8(FP), AX
	MOVQ   dst+16(FP), DI
	MOVQ   cols+24(FP), BX
	MOVQ   rowBytes+32(FP), R15
	MOVQ   units+40(FP), R12
	VXORPD X15, X15, X15

i32blk:
	CMPQ BX, $32
	JLT  i32done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	MOVQ SI, R8
	XORQ R13, R13

i32gate:
	LEAQ (AX)(R13*8), R9
	MOVQ R12, R14

i32row:
	VMOVSD   (R9), X4
	VUCOMISD X15, X4
	JNE      i32add
	JPS      i32add // NaN is not zero
	JMP      i32next

i32add:
	VBROADCASTSD X4, Y4
	VCVTPS2PD    0(R8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y0, Y5, Y0
	VCVTPS2PD    16(R8), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y1, Y6, Y1
	VCVTPS2PD    32(R8), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y2, Y8, Y2
	VCVTPS2PD    48(R8), Y9
	VMULPD       Y4, Y9, Y9
	VADDPD       Y3, Y9, Y3
	VCVTPS2PD    64(R8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y10, Y5, Y10
	VCVTPS2PD    80(R8), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y11, Y6, Y11
	VCVTPS2PD    96(R8), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y12, Y8, Y12
	VCVTPS2PD    112(R8), Y9
	VMULPD       Y4, Y9, Y9
	VADDPD       Y13, Y9, Y13

i32next:
	ADDQ R15, R8
	ADDQ $32, R9
	DECQ R14
	JNZ  i32row
	INCQ R13
	CMPQ R13, $4
	JLT  i32gate
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y10, 128(DI)
	VMOVUPD Y11, 160(DI)
	VMOVUPD Y12, 192(DI)
	VMOVUPD Y13, 224(DI)
	ADDQ $128, SI
	ADDQ $256, DI
	SUBQ $32, BX
	JMP  i32blk

i32done:
i16blk:
	CMPQ BX, $16
	JLT  i16done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R8
	XORQ R13, R13

i16gate:
	LEAQ (AX)(R13*8), R9
	MOVQ R12, R14

i16row:
	VMOVSD   (R9), X4
	VUCOMISD X15, X4
	JNE      i16add
	JPS      i16add // NaN is not zero
	JMP      i16next

i16add:
	VBROADCASTSD X4, Y4
	VCVTPS2PD    (R8), Y5
	VCVTPS2PD    16(R8), Y6
	VCVTPS2PD    32(R8), Y8
	VCVTPS2PD    48(R8), Y9
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y8, Y8
	VMULPD       Y4, Y9, Y9
	VADDPD       Y0, Y5, Y0
	VADDPD       Y1, Y6, Y1
	VADDPD       Y2, Y8, Y2
	VADDPD       Y3, Y9, Y3

i16next:
	ADDQ R15, R8
	ADDQ $32, R9
	DECQ R14
	JNZ  i16row
	INCQ R13
	CMPQ R13, $4
	JLT  i16gate
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $64, SI
	ADDQ $128, DI
	SUBQ $16, BX
	JMP  i16blk

i16done:
i4blk:
	CMPQ BX, $4
	JLT  i4done
	VXORPD Y0, Y0, Y0
	MOVQ SI, R8
	XORQ R13, R13

i4gate:
	LEAQ (AX)(R13*8), R9
	MOVQ R12, R14

i4row:
	VMOVSD   (R9), X4
	VUCOMISD X15, X4
	JNE      i4add
	JPS      i4add // NaN is not zero
	JMP      i4next

i4add:
	VBROADCASTSD X4, Y4
	VCVTPS2PD    (R8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y0, Y5, Y0

i4next:
	ADDQ R15, R8
	ADDQ $32, R9
	DECQ R14
	JNZ  i4row
	INCQ R13
	CMPQ R13, $4
	JLT  i4gate
	VMOVUPD Y0, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $4, BX
	JMP  i4blk

i4done:
i1blk:
	CMPQ BX, $1
	JLT  i1done
	VXORPD Y0, Y0, Y0
	MOVQ SI, R8
	XORQ R13, R13

i1gate:
	LEAQ (AX)(R13*8), R9
	MOVQ R12, R14

i1row:
	VMOVSD   (R9), X4
	VUCOMISD X15, X4
	JNE      i1add
	JPS      i1add // NaN is not zero
	JMP      i1next

i1add:
	VMOVSS    (R8), X5
	VCVTSS2SD X5, X5, X5
	VMULSD    X4, X5, X5
	VADDSD    X0, X5, X0

i1next:
	ADDQ R15, R8
	ADDQ $32, R9
	DECQ R14
	JNZ  i1row
	INCQ R13
	CMPQ R13, $4
	JLT  i1gate
	VMOVSD X0, (DI)
	ADDQ $4, SI
	ADDQ $8, DI
	SUBQ $1, BX
	JMP  i1blk

i1done:
	VZEROUPPER
	RET

// func cpuHasAVX2FMA() bool
//
// CPUID.1:ECX must report OSXSAVE, AVX and FMA, XCR0 must have XMM+YMM
// state enabled, and CPUID.7.0:EBX must report AVX2.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18001000, R8
	CMPL R8, $0x18001000
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

// Constants of the gate activations, each replicated into a 32-byte quad
// so it serves as a ymm memory operand. The exp constants and their
// roles are $GOROOT/src/math/exp_amd64.s's; the tanh ones are
// math/tanh.go's.
#define QUAD(sym, bits) \
	DATA sym<>+0(SB)/8, $bits; \
	DATA sym<>+8(SB)/8, $bits; \
	DATA sym<>+16(SB)/8, $bits; \
	DATA sym<>+24(SB)/8, $bits; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

QUAD(zero, 0)
QUAD(signbit, 0x8000000000000000)
QUAD(absmask, 0x7fffffffffffffff)
QUAD(half, 0x3fe0000000000000)             // 0.5
QUAD(one, 0x3ff0000000000000)              // 1.0
QUAD(two, 0x4000000000000000)              // 2.0
QUAD(tiny, 0x0010000000000000)             // 2^-1022
QUAD(log2e, 0x3ff71547652b82fe)            // 1/ln 2
QUAD(ln2u, 0x3fe62e42fefa3000)             // ln 2, upper half
QUAD(ln2l, 0x3d53de6af278ece6)             // ln 2, lower half
QUAD(sixteenth, 0x3fb0000000000000)        // 0.0625
QUAD(exp3, 0x3fc5555555555555)             // 1/3!
QUAD(exp4, 0x3fa5555555555555)             // 1/4!
QUAD(exp5, 0x3f81111111111111)             // 1/5!
QUAD(exp6, 0x3f56c16c16c16c17)             // 1/6!
QUAD(exp7, 0x3f2a01a01a01a01a)             // 1/7!
QUAD(exp8, 0x3efa01a01a01a01a)             // 1/8!
QUAD(expbias, 0x3ff)                       // int64 1023
QUAD(expbias1, 0x3fe)                      // int64 1022
QUAD(minus52, 0xffffffffffffffcc)          // int64 -52
QUAD(halfmaxlog, 0x404601e678fc457b)       // 0.5*MAXLOG
QUAD(tanhsmall, 0x3fe4000000000000)        // 0.625
QUAD(tanhp0, 0xbfeedc5baafd6f4b)
QUAD(tanhp1, 0xc058d26a0e26682d)
QUAD(tanhp2, 0xc0993ac030580563)
QUAD(tanhq0, 0x405c33f28a581b86)
QUAD(tanhq1, 0x40a176fa0e5535fa)
QUAD(tanhq2, 0x40b2ec102442040c)

// EXP(A) replaces each lane of A with math.Exp of it, bit for bit, for
// every A ≤ 709 and NaN: exp_amd64.s's FMA path (taken wherever this
// kernel runs, see haveSIMD) with its branches as lane masks. The
// reduction x − e·ln2 (e the nearest integer to x/ln2, split ln2, one
// rounding each), the scaled Taylor polynomial and the four squarings
// are its instruction sequence lane for lane; the 2^e scaling takes its
// two-multiply denormal route where e+1023 ≤ 0 (the normal route
// multiplies by 1.0 more, which is exact). Then, as in its branches,
// e+1023 < −52 gives +0 (−Inf lands here too) and NaN gives x unchanged.
// Its overflow branch is left out: sigmoid passes arguments ≤ 0, and a
// tanh lane uses exp(2|x|) only for |x| ≤ MAXLOG/2 ≈ 44. Clobbers
// Y12–Y15.
#define EXP(A) \
	VMOVAPD      A, Y13; \
	VMULPD       log2e<>(SB), A, Y14; \
	VCVTPD2DQY   Y14, X15; \
	VCVTDQ2PD    X15, Y14; \
	VPMOVSXDQ    X15, Y15; \
	VFNMADD231PD ln2u<>(SB), Y14, A; \
	VFNMADD231PD ln2l<>(SB), Y14, A; \
	VMULPD       sixteenth<>(SB), A, A; \
	VMOVUPD      exp8<>(SB), Y14; \
	VFMADD213PD  exp7<>(SB), A, Y14; \
	VFMADD213PD  exp6<>(SB), A, Y14; \
	VFMADD213PD  exp5<>(SB), A, Y14; \
	VFMADD213PD  exp4<>(SB), A, Y14; \
	VFMADD213PD  exp3<>(SB), A, Y14; \
	VFMADD213PD  half<>(SB), A, Y14; \
	VFMADD213PD  one<>(SB), A, Y14; \
	VMULPD       Y14, A, A; \
	VADDPD       two<>(SB), A, Y14; \
	VMULPD       Y14, A, A; \
	VADDPD       two<>(SB), A, Y14; \
	VMULPD       Y14, A, A; \
	VADDPD       two<>(SB), A, Y14; \
	VMULPD       Y14, A, A; \
	VADDPD       two<>(SB), A, Y14; \
	VFMADD213PD  one<>(SB), Y14, A; \
	VPADDQ       expbias<>(SB), Y15, Y15; \
	VPCMPGTQ     zero<>(SB), Y15, Y14; \
	VPANDN       expbias1<>(SB), Y14, Y12; \
	VPADDQ       Y15, Y12, Y12; \
	VPSLLQ       $52, Y12, Y12; \
	VMULPD       Y12, A, A; \
	VMOVUPD      tiny<>(SB), Y12; \
	VBLENDVPD    Y14, one<>(SB), Y12, Y12; \
	VMULPD       Y12, A, A; \
	VMOVDQU      minus52<>(SB), Y14; \
	VPCMPGTQ     Y15, Y14, Y14; \
	VANDNPD      A, Y14, A; \
	VCMPPD       $0x03, Y13, Y13, Y14; \
	VBLENDVPD    Y14, Y13, A, A

// SIGMOID(X) replaces each lane of X with sigmoid of it: m = x ≥ 0,
// z = exp(m ? −x : x), then (m ? 1 : z) / (1 + z). Clobbers Y9–Y15.
#define SIGMOID(X) \
	VCMPPD    $0x1d, zero<>(SB), X, Y10; \
	VANDPD    signbit<>(SB), Y10, Y11; \
	VXORPD    X, Y11, Y11; \
	EXP(Y11); \
	VADDPD    one<>(SB), Y11, Y9; \
	VBLENDVPD Y10, one<>(SB), Y11, Y11; \
	VDIVPD    Y9, Y11, X

// TANH(X) replaces each lane of X with math.Tanh of it. All three of
// tanh.go's branches are computed and the lane picks one: |x| > MAXLOG/2
// gives ±1; |x| ≥ 0.625 gives ±(1 − 2/(exp(2|x|)+1)); otherwise
// x + x·s·P(s)/Q(s) with s = x², except that x = ±0 returns x (the
// polynomial would turn −0 into +0). Clobbers Y5–Y15.
#define TANH(X) \
	VANDPD    absmask<>(SB), X, Y5; \
	VCMPPD    $0x1e, halfmaxlog<>(SB), Y5, Y7; \
	VCMPPD    $0x1d, tanhsmall<>(SB), Y5, Y6; \
	VADDPD    Y5, Y5, Y8; \
	EXP(Y8); \
	VADDPD    one<>(SB), Y8, Y8; \
	VMOVUPD   two<>(SB), Y9; \
	VDIVPD    Y8, Y9, Y8; \
	VMOVUPD   one<>(SB), Y9; \
	VSUBPD    Y8, Y9, Y8; \
	VANDPD    signbit<>(SB), X, Y11; \
	VXORPD    Y11, Y8, Y8; \
	VMULPD    X, X, Y9; \
	VMULPD    tanhp0<>(SB), Y9, Y10; \
	VADDPD    tanhp1<>(SB), Y10, Y10; \
	VMULPD    Y9, Y10, Y10; \
	VADDPD    tanhp2<>(SB), Y10, Y10; \
	VADDPD    tanhq0<>(SB), Y9, Y5; \
	VMULPD    Y9, Y5, Y5; \
	VADDPD    tanhq1<>(SB), Y5, Y5; \
	VMULPD    Y9, Y5, Y5; \
	VADDPD    tanhq2<>(SB), Y5, Y5; \
	VMULPD    Y9, X, Y9; \
	VMULPD    Y10, Y9, Y9; \
	VDIVPD    Y5, Y9, Y9; \
	VADDPD    Y9, X, Y9; \
	VCMPPD    $0x00, zero<>(SB), X, Y10; \
	VBLENDVPD Y10, X, Y9, Y9; \
	VBLENDVPD Y6, Y8, Y9, Y9; \
	VORPD     one<>(SB), Y11, Y11; \
	VBLENDVPD Y7, Y11, Y9, X

// TRANSPOSE4 transposes the 4×4 block in Y0–Y3 (row r in Yr) in place:
// four units' i|f|g|o quads become the i, f, g and o vectors of the four
// units, and back. Clobbers Y4–Y7.
#define TRANSPOSE4 \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// func gateActSIMD(gates, cPrev, c, tanhC, h *float64, groups int64)
//
// Applies the LSTM nonlinearities to groups*4 hidden units, four units
// per iteration with one unit per lane: the units' gate quads are
// transposed into i, f, g and o vectors, activated, and transposed back
// in place; then c = cPrev·f + g·i, tanh c (stored when tanhC is
// non-nil) and h = tanh c · o. c may alias cPrev.
//
// Bitwise contract: each lane runs activate's scalar loop — sigmoid and
// math.Tanh through EXP, which is math.Exp's own instruction sequence —
// with the same operations and roundings. The one thing the source does
// not fix is which NaN payload survives where two different NaNs meet in
// one multiply or add: that follows operand order, which the compiler
// picks for the scalar loop. The operand orders here are the ones go1.24
// picks.
//
// Register map:
//   AX gates, BX cPrev, CX c, DX tanhC (0: not stored), SI h cursors;
//   DI remaining groups. Y0–Y3 the i, f, g, o vectors; Y4 c, then
//   tanh c, then h; Y5–Y15 the macros' scratch.
TEXT ·gateActSIMD(SB), NOSPLIT, $0-48
	MOVQ gates+0(FP), AX
	MOVQ cPrev+8(FP), BX
	MOVQ c+16(FP), CX
	MOVQ tanhC+24(FP), DX
	MOVQ h+32(FP), SI
	MOVQ groups+40(FP), DI

agroup:
	TESTQ DI, DI
	JZ    adone
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	TRANSPOSE4
	SIGMOID(Y0)
	SIGMOID(Y1)
	TANH(Y2)
	SIGMOID(Y3)

	VMOVUPD (BX), Y4
	VMULPD  Y1, Y4, Y4
	VMULPD  Y0, Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (CX)
	TANH(Y4)
	TESTQ   DX, DX
	JZ      anotanh
	VMOVUPD Y4, (DX)
	ADDQ    $32, DX

anotanh:
	VMULPD  Y3, Y4, Y4
	VMOVUPD Y4, (SI)
	TRANSPOSE4
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	ADDQ    $128, AX
	ADDQ    $32, BX
	ADDQ    $32, CX
	ADDQ    $32, SI
	DECQ    DI
	JMP     agroup

adone:
	VZEROUPPER
	RET

// func gateGradSIMD(gates, tanhC, cPrev, dhRec, carry, dc, dq *float64, groups int64)
//
// Computes one layer step's gate pre-activation gradients for groups*4
// hidden units, four units per iteration with one unit per lane: the
// units' activated gate quads are transposed into i, f, g and o
// vectors; with dh = dhRec + carry (the gradient into h) and tc = tanh c,
//
//	do = tc·dh                  dc' = (o·dh)·(1 − tc·tc) + dc
//	di = g·dc'  df = cPrev·dc'  dg = i·dc'  dc ← f·dc'
//	dq_i = (1 − i)·(di·i)       dq_f = (1 − f)·(df·f)
//	dq_g = dg·(1 − g·g)         dq_o = (1 − o)·(do·o)
//
// and the four gradient vectors are transposed back into the units'
// quads in dq. dc is updated in place.
//
// Bitwise contract: each lane runs gateGrad's scalar loop with the same
// operations and roundings (no FMA), and every multiply and add takes
// its operands in the order go1.24 compiles that loop to (the first
// operand written first above), so where two different NaNs meet the
// same payload survives.
//
// Register map:
//   AX gates, BX tanhC, CX cPrev, DX dhRec, SI carry, DI dc, R8 dq
//   cursors; R9 remaining groups. Y0–Y3 the i, f, g, o vectors, then
//   the gradients; Y4 dh; Y5 tanh c; Y6 do; Y7 dc'; Y8 di; Y9 df;
//   Y10 dg; Y11–Y13 scratch; Y15 ones.
TEXT ·gateGradSIMD(SB), NOSPLIT, $0-64
	MOVQ    gates+0(FP), AX
	MOVQ    tanhC+8(FP), BX
	MOVQ    cPrev+16(FP), CX
	MOVQ    dhRec+24(FP), DX
	MOVQ    carry+32(FP), SI
	MOVQ    dc+40(FP), DI
	MOVQ    dq+48(FP), R8
	MOVQ    groups+56(FP), R9
	VMOVUPD one<>(SB), Y15

dgroup:
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	TRANSPOSE4

	VMOVUPD (DX), Y4
	VADDPD  (SI), Y4, Y4  // dh = dhRec + carry
	VMOVUPD (BX), Y5
	VMULPD  Y4, Y5, Y6    // do = tc·dh
	VMULPD  Y4, Y3, Y7    // o·dh
	VMULPD  Y5, Y5, Y11
	VSUBPD  Y11, Y15, Y11 // 1 − tc·tc
	VMULPD  Y11, Y7, Y7
	VADDPD  (DI), Y7, Y7  // dc'
	VMULPD  Y7, Y2, Y8    // di = g·dc'
	VMOVUPD (CX), Y9
	VMULPD  Y7, Y9, Y9    // df = cPrev·dc'
	VMULPD  Y7, Y0, Y10   // dg = i·dc'
	VMULPD  Y7, Y1, Y11   // f·dc'
	VMOVUPD Y11, (DI)

	VMULPD Y0, Y8, Y8    // di·i
	VSUBPD Y0, Y15, Y12  // 1 − i
	VMULPD Y8, Y12, Y0   // dq_i
	VMULPD Y1, Y9, Y9    // df·f
	VSUBPD Y1, Y15, Y12  // 1 − f
	VMULPD Y9, Y12, Y1   // dq_f
	VMULPD Y2, Y2, Y12
	VSUBPD Y12, Y15, Y12 // 1 − g·g
	VMULPD Y12, Y10, Y2  // dq_g
	VMULPD Y3, Y6, Y6    // do·o
	VSUBPD Y3, Y15, Y12  // 1 − o
	VMULPD Y6, Y12, Y3   // dq_o

	TRANSPOSE4
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	ADDQ    $128, AX
	ADDQ    $32, BX
	ADDQ    $32, CX
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $128, R8
	DECQ    R9
	JNZ     dgroup

	VZEROUPPER
	RET
