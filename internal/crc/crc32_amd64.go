package crc

import "math"

// clmulCRC advances the register crc over p, which must be at least 16
// bytes long, modulo the degree-32 generator P whose constants k holds, and
// returns the new register, (crc·x^(8·len(p)) + p·x³²) mod P. It is
// implemented in crc32_amd64.s and needs PCLMULQDQ and SSSE3.
//
//go:noescape
func clmulCRC(crc uint32, p []byte, k *clmulConsts) uint32

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// foldMin is the shortest input CRC32Update and the CRC-10 hand to
// clmulCRC; a CPU without the instructions never takes the kernel.
var foldMin = math.MaxInt

func init() {
	// CPUID leaf 1 ECX: bit 1 is PCLMULQDQ, bit 9 SSSE3 (for PSHUFB). Go's
	// default GOAMD64=v1 promises neither.
	const pclmulqdq, ssse3 = 1 << 1, 1 << 9
	if cpuid1ECX()&(pclmulqdq|ssse3) == pclmulqdq|ssse3 {
		foldMin = 16
	}
}
