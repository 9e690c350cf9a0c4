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
//   R8-R11  the four unit-block cursors of the float64 gradient; they
//           advance 32 bytes per column and finish each iteration at the
//           next block, so R11 lands on the next group
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

// func inputGradSIMD(w *float32, dq, dst *float64, n, units, blkBytes int64)
//
// Sums gate gradients back through the weights into one input of a step:
// dst[k] += dq[4j+g]·W(j,g)[k] for k < n, over rows in the blocked order
// r = g·units + j (gate-major), skipping rows whose gradient is exactly
// zero. w points at column 0, gate 0 of unit 0's columns of interest
// (the input or the recurrent columns); column k of gate g of unit j is at
// w + j·blkBytes + 16k + 4g, so a row is read strided: four columns'
// float32 weights are gathered into one xmm and widened into one ymm.
//
// Bitwise contract: each dst element takes its terms in row order, each as
// one multiply by the widened weight and one add (never FMA) — exactly
// inputGrad's scalar loop.
//
// Register map:
//   SI      w;  AX  dq;  DI  dst;  BX  n;  R12  units;  R15  blkBytes
//   R13     gate g;  R14  remaining units
//   R8      row cursor (column 0 of the current unit and gate)
//   R9      dq cursor (the current unit's gate-g gradient)
//   R10     column cursor;  R11  dst cursor;  CX  remaining columns
//   X7      zero;  Y4  broadcast row gradient;  Y5  columns
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
	LEAQ (SI)(R13*4), R8
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
	CMPQ      CX, $4
	JLT       itail
	VMOVSS    (R10), X5
	VINSERTPS $0x10, 16(R10), X5, X5
	VINSERTPS $0x20, 32(R10), X5, X5
	VINSERTPS $0x30, 48(R10), X5, X5
	VCVTPS2PD X5, Y5
	VMULPD    Y4, Y5, Y5
	VADDPD    (R11), Y5, Y5
	VMOVUPD   Y5, (R11)
	ADDQ      $64, R10
	ADDQ      $32, R11
	SUBQ      $4, CX
	JMP       iquad

itail:
	TESTQ     CX, CX
	JZ        inext
	VMOVSS    (R10), X5
	VCVTSS2SD X5, X5, X5
	VMULSD    X4, X5, X5
	VADDSD    (R11), X5, X5
	VMOVSD    X5, (R11)
	ADDQ      $16, R10
	ADDQ      $8, R11
	DECQ      CX
	JMP       itail

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
