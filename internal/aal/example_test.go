package aal_test

import (
	"bytes"
	"fmt"

	"repro/internal/aal"
	"repro/internal/atm"
)

// Segmenting an SDU into cells and reassembling it, AAL5 style.
func ExampleNewSegmenter() {
	seg, ras := aal.NewSegmenter(aal.AAL5), aal.NewReassembler(aal.AAL5, 0)
	sdu := bytes.Repeat([]byte("atm!"), 100) // 400 bytes

	cells, err := seg.Begin(sdu)
	if err != nil {
		panic(err)
	}
	fmt.Printf("SDU of %d bytes -> %d cells\n", len(sdu), cells)

	var result *aal.Result
	for i := 0; i < cells; i++ {
		var payload [atm.PayloadSize]byte
		pt, _, err := seg.Next(&payload)
		if err != nil {
			panic(err)
		}
		if result, err = ras.Push(&payload, pt); err != nil {
			panic(err)
		}
	}
	fmt.Printf("reassembled %d bytes, intact: %v\n",
		len(result.SDU), bytes.Equal(result.SDU, sdu))
	// Output:
	// SDU of 400 bytes -> 9 cells
	// reassembled 400 bytes, intact: true
}

// AAL1 carries a constant-bit-rate stream, concealing losses as silence so
// the circuit clock never slips.
func ExampleAAL1Receiver() {
	tx := aal.NewAAL1Sender()
	rx := aal.NewAAL1Receiver()
	tx.Write(make([]byte, 47*4)) // four cells of "voice"

	var p [atm.PayloadSize]byte
	for i := 0; tx.NextCell(&p); i++ {
		if i == 2 {
			continue // cell lost in the network
		}
		rx.Push(&p)
	}
	fmt.Printf("cells lost %d, stream bytes %d (clock preserved)\n",
		rx.LostCells, rx.Pending())
	// Output:
	// cells lost 1, stream bytes 188 (clock preserved)
}
