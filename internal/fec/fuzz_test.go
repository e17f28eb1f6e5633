package fec

import (
	"bytes"
	"hash/fnv"
	"math/rand/v2"
	"testing"
)

// FuzzDecoder feeds arbitrary bytes to Decoder.Push, which must return an
// error or accept them, never panic. Each input then drives a round trip:
// the input itself is one payload of a group of k, the other k-1 are random
// (seeded from the input), one data packet is dropped, and the decoder must
// deliver the dropped payload, marked recovered, byte for byte.
func FuzzDecoder(f *testing.F) {
	// A parity flag, k=48 and a length of 0x3030 in an 8-byte packet: the
	// length check once skipped parity packets, and the body slice panicked.
	f.Add([]byte("\xfe1000000"))
	for _, k := range []int{2, 4} {
		enc := NewEncoder(k)
		for i := 0; i < k; i++ {
			data, parity, err := enc.Encode(bytes.Repeat([]byte{byte(i + 1)}, 10*i))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			if parity != nil {
				f.Add(parity)
			}
		}
	}
	f.Fuzz(func(t *testing.T, pkt []byte) {
		_ = NewDecoder(func([]byte, bool) {}).Push(pkt) // any error is fine; a panic is not

		if len(pkt) > MaxData {
			pkt = pkt[:MaxData]
		}
		h := fnv.New64a()
		h.Write(pkt)
		rng := rand.New(rand.NewPCG(h.Sum64(), uint64(len(pkt))))
		k := 2 + rng.IntN(7)
		drop := rng.IntN(k)
		var got [][]byte
		var recovered []bool
		dec := NewDecoder(func(p []byte, rec bool) {
			got = append(got, p)
			recovered = append(recovered, rec)
		})
		enc := NewEncoder(k)
		for i := 0; i < k; i++ {
			p := pkt
			if i != drop {
				p = make([]byte, rng.IntN(min(2*len(pkt)+8, MaxData+1)))
				for j := range p {
					p[j] = byte(rng.Uint32())
				}
			}
			data, parity, err := enc.Encode(p)
			if err != nil {
				t.Fatal(err)
			}
			if i != drop {
				if err := dec.Push(data); err != nil {
					t.Fatalf("data packet %d: %v", i, err)
				}
			}
			if parity != nil {
				if err := dec.Push(parity); err != nil {
					t.Fatalf("parity packet: %v", err)
				}
			}
		}
		if len(got) != k {
			t.Fatalf("k=%d, dropped %d: %d deliveries, want %d", k, drop, len(got), k)
		}
		for i, rec := range recovered[:k-1] {
			if rec {
				t.Fatalf("delivery %d marked recovered before the parity arrived", i)
			}
		}
		if !recovered[k-1] || !bytes.Equal(got[k-1], pkt) {
			t.Fatalf("k=%d, dropped %d: last delivery recovered=%v, %d bytes; want the %d-byte dropped payload",
				k, drop, recovered[k-1], len(got[k-1]), len(pkt))
		}
	})
}
