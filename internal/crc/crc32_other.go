//go:build !amd64

package crc

import "math"

// foldMin keeps every input on the table loops: the carry-less-multiply
// kernel exists only for amd64.
const foldMin = math.MaxInt

// clmulCRC is never called here: the CRCs take the kernel only from
// foldMin bytes on, and no input is math.MaxInt bytes long.
func clmulCRC(crc uint32, p []byte, k *clmulConsts) uint32 {
	panic("crc: no carry-less multiply kernel on this architecture")
}
