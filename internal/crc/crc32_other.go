//go:build !amd64

package crc

import "math"

// foldMin keeps every input on the slicing-by-8 loop: the carry-less
// multiply fold exists only for amd64.
const foldMin = math.MaxInt

// foldBE is never called here: CRC32Update folds only from foldMin bytes
// on, and no input is math.MaxInt bytes long.
func foldBE(crc uint32, p []byte, k *foldConsts) (hi, lo uint64) {
	panic("crc: no carry-less multiply kernel on this architecture")
}
