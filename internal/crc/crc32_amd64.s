#include "textflag.h"

// func clmulCRC(crc uint32, p []byte, k *clmulConsts) uint32
//
// Each 16-byte block is loaded through k.swap, so that it reads as a
// polynomial of degree < 128 with the MSB of its first byte as the x¹²⁷
// coefficient. crc goes into the top 32 bits of the first block. Four
// accumulators X0–X3 sit 64 bytes apart and each moves 512 bits ahead per
// step; they merge by 128-bit folds, and the whole blocks left over fold
// one at a time into X0. A fold of accumulator A by the constant pair K is
// A_lo·K_lo ⊕ A_hi·K_hi.
//
// A partial last block of r = len(p) mod 16 bytes turns the accumulator F
// into F·x^(8r) ⊕ T: F's top r bytes, shifted down, fold one block ahead;
// F shifted up r bytes takes the rest; and T, the last r bytes of p, is
// read as the low r bytes of p's last 16, so no load leaves p. Both shifts
// are PSHUFBs through k.shift, at offsets 16−r and 32−r, and T's mask is
// k.keep at offset 16−r.
//
// The register is then F·x³² mod P, found by a Barrett reduction. With
// F = H·x⁶⁴ + L, G = H·(x⁹⁶ mod P) ⊕ L·x³² has degree < 96 and
// V = G_hi·(x⁶⁴ mod P) ⊕ G_lo degree < 64. Then q = ⌊⌊V/x³²⌋·µ/x³²⌋ is
// ⌊V/P⌋ exactly, and the register is the low 32 bits of V ⊕ q·P.
//
// k's fields, by offset: swap 0, k512 16, k128 32, k96 48, barrett 64,
// shift 80, keep 128. Register use: SI walks p, CX counts the whole-block
// bytes left, BX is r, DI points at p's last 16 bytes, X8 = k.k512,
// X9 = k.k128, X10 = k.swap.
TEXT ·clmulCRC(SB), NOSPLIT, $0-44
	MOVL  crc+0(FP), AX
	MOVQ  p_base+8(FP), SI
	MOVQ  p_len+16(FP), CX
	MOVQ  k+32(FP), DX
	MOVOU 0(DX), X10
	MOVOU 16(DX), X8
	MOVOU 32(DX), X9
	LEAQ  -16(SI)(CX*1), DI
	MOVQ  CX, BX
	ANDQ  $15, BX
	ANDQ  $-16, CX

	MOVQ   AX, X11
	PSLLDQ $12, X11
	MOVOU  (SI), X0
	PSHUFB X10, X0
	PXOR   X11, X0
	ADDQ   $16, SI
	SUBQ   $16, CX

	CMPQ   CX, $48
	JB     one
	MOVOU  (SI), X1
	MOVOU  16(SI), X2
	MOVOU  32(SI), X3
	PSHUFB X10, X1
	PSHUFB X10, X2
	PSHUFB X10, X3
	ADDQ   $48, SI
	SUBQ   $48, CX

four:
	CMPQ      CX, $64
	JB        merge
	MOVOU     X0, X4
	MOVOU     X1, X5
	MOVOU     X2, X6
	MOVOU     X3, X7
	PCLMULQDQ $0x00, X8, X0
	PCLMULQDQ $0x00, X8, X1
	PCLMULQDQ $0x00, X8, X2
	PCLMULQDQ $0x00, X8, X3
	PCLMULQDQ $0x11, X8, X4
	PCLMULQDQ $0x11, X8, X5
	PCLMULQDQ $0x11, X8, X6
	PCLMULQDQ $0x11, X8, X7
	MOVOU     (SI), X11
	MOVOU     16(SI), X12
	MOVOU     32(SI), X13
	MOVOU     48(SI), X14
	PSHUFB    X10, X11
	PSHUFB    X10, X12
	PSHUFB    X10, X13
	PSHUFB    X10, X14
	PXOR      X4, X0
	PXOR      X5, X1
	PXOR      X6, X2
	PXOR      X7, X3
	PXOR      X11, X0
	PXOR      X12, X1
	PXOR      X13, X2
	PXOR      X14, X3
	ADDQ      $64, SI
	SUBQ      $64, CX
	JMP       four

merge:
	MOVOU     X0, X4
	PCLMULQDQ $0x00, X9, X0
	PCLMULQDQ $0x11, X9, X4
	PXOR      X4, X0
	PXOR      X1, X0
	MOVOU     X0, X4
	PCLMULQDQ $0x00, X9, X0
	PCLMULQDQ $0x11, X9, X4
	PXOR      X4, X0
	PXOR      X2, X0
	MOVOU     X0, X4
	PCLMULQDQ $0x00, X9, X0
	PCLMULQDQ $0x11, X9, X4
	PXOR      X4, X0
	PXOR      X3, X0

one:
	CMPQ      CX, $16
	JB        tail
	MOVOU     X0, X4
	PCLMULQDQ $0x00, X9, X0
	PCLMULQDQ $0x11, X9, X4
	MOVOU     (SI), X11
	PSHUFB    X10, X11
	PXOR      X4, X0
	PXOR      X11, X0
	ADDQ      $16, SI
	SUBQ      $16, CX
	JMP       one

tail:
	TESTQ     BX, BX
	JZ        finish
	MOVQ      $16, R8
	SUBQ      BX, R8
	MOVOU     80(DX)(R8*1), X1
	MOVOU     96(DX)(R8*1), X2
	MOVOU     128(DX)(R8*1), X3
	MOVOU     (DI), X11
	PSHUFB    X10, X11
	PAND      X3, X11
	MOVOU     X0, X4
	PSHUFB    X2, X4
	PSHUFB    X1, X0
	MOVOU     X4, X5
	PCLMULQDQ $0x00, X9, X4
	PCLMULQDQ $0x11, X9, X5
	PXOR      X4, X0
	PXOR      X5, X0
	PXOR      X11, X0

finish:
	MOVOU     48(DX), X1
	MOVOU     64(DX), X2
	MOVOU     X0, X3
	PCLMULQDQ $0x01, X1, X3
	MOVQ      X0, X4
	PSLLDQ    $4, X4
	PXOR      X4, X3
	MOVQ      X3, X4
	PCLMULQDQ $0x11, X1, X3
	PXOR      X4, X3
	MOVOU     X3, X4
	PSRLQ     $32, X4
	PCLMULQDQ $0x00, X2, X4
	PSRLQ     $32, X4
	PCLMULQDQ $0x10, X2, X4
	PXOR      X4, X3
	MOVQ      X3, AX
	MOVL      AX, ret+40(FP)
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET
