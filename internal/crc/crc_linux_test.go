//go:build linux

package crc

import (
	"syscall"
	"testing"
)

// TestCRCsStayInsideInput runs every CRC entry point on inputs of 16–80
// bytes that end right before an inaccessible page and that start right
// after one. A load outside the input, such as an overlapped tail load
// that reached back past its start, faults and kills the test binary.
func TestCRCsStayInsideInput(t *testing.T) {
	pg := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*pg, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	for _, guard := range [][]byte{mem[:pg], mem[2*pg:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	data := mem[pg : 2*pg]
	for i := range data {
		data[i] = byte(i*131 + 7)
	}
	for n := 16; n <= 80; n++ {
		for _, p := range [][]byte{data[len(data)-n:], data[:n]} {
			if got, want := CRC32Update(0xffff_ffff, p), crc32BitwiseUpdate(0xffff_ffff, p); got != want {
				t.Fatalf("len %d: CRC32Update %#08x, reference %#08x", n, got, want)
			}
			if got, want := CRC10(p), CRC10Bitwise(p); got != want {
				t.Fatalf("len %d: CRC10 %#03x, bitwise %#03x", n, got, want)
			}
			CRC10Fill(p)
			if !CRC10Check(p) {
				t.Fatalf("len %d: a filled PDU fails CRC10Check", n)
			}
		}
	}
}
