package crc

import (
	"math"
	"testing"
)

// TestFoldSelected fails when a CPU that reports PCLMULQDQ and SSSE3 does
// not take the fold path, so the fast path cannot vanish unnoticed.
func TestFoldSelected(t *testing.T) {
	ecx := cpuid1ECX()
	has := ecx&(1<<1) != 0 && ecx&(1<<9) != 0
	if has && foldMin != 16 {
		t.Fatalf("CPUID reports PCLMULQDQ and SSSE3 but foldMin is %d, want 16", foldMin)
	}
	if !has && foldMin != math.MaxInt {
		t.Fatalf("CPUID lacks PCLMULQDQ or SSSE3 but foldMin is %d", foldMin)
	}
	t.Logf("fold path selected: %v", has)
}
