package crc

import "math"

// foldBE folds the 16-byte blocks of p, whose length is a positive multiple
// of 16, with crc XORed into the top 32 bits of the first block. It returns
// the 128-bit F, congruent to that message modulo P, as its high and low 64
// bits (see foldConsts). It is implemented in crc32_amd64.s and needs
// PCLMULQDQ and SSSE3.
//
//go:noescape
func foldBE(crc uint32, p []byte, k *foldConsts) (hi, lo uint64)

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// foldMin is the shortest input CRC32Update hands to foldBE. Folding pays
// from two blocks on; a CPU without the instructions never folds.
var foldMin = math.MaxInt

func init() {
	// CPUID leaf 1 ECX: bit 1 is PCLMULQDQ, bit 9 SSSE3 (for PSHUFB). Go's
	// default GOAMD64=v1 promises neither.
	const pclmulqdq, ssse3 = 1 << 1, 1 << 9
	if cpuid1ECX()&(pclmulqdq|ssse3) == pclmulqdq|ssse3 {
		foldMin = 32
	}
}
