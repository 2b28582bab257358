#include "textflag.h"

// func mulAddVec(tab *[32]byte, dst, src *byte, n int)
//
// dst[i] ^= c·src[i] for i in [0, n), n a positive multiple of 32.  tab is
// the coefficient's nibble-table pair (nibTable[c]): bytes 0–15 are c·v for
// v = 0…15, bytes 16–31 are c·(v<<4).  Each is broadcast to both 128-bit
// lanes, so one VPSHUFB looks 32 low nibbles up at once and a second the 32
// high ones; their XOR is c·src (c·v = c·(v&15) ⊕ c·(v&240)).
TEXT ·mulAddVec(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	VBROADCASTI128 (AX), Y0   // c·lo
	VBROADCASTI128 16(AX), Y1 // c·(hi<<4)
	MOVQ $15, BX
	MOVQ BX, X2
	VPBROADCASTB X2, Y2       // 0x0f in every byte
	SHRQ $5, CX
	// The loop head sits on a 32-byte boundary wherever the linker puts
	// the function: the byte loop this replaced ran ±15 % with its
	// placement in a cache line.
	PCALIGN $32
loop:
	VMOVDQU (SI), Y3
	VPSRLQ $4, Y3, Y4
	VPAND Y2, Y3, Y3
	VPAND Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR Y3, Y4, Y3
	VPXOR (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ loop
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// Reads XCR0.  Only valid when CPUID reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
