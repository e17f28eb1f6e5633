package vclookup

import "testing"

// FuzzCAM decodes its input into a CAM capacity (first byte, 1–8) and an
// operation sequence (one byte per step: the top two bits pick insert,
// remove or lookup, the low four the label), and checks every step against
// the reference model of checkCAM.
func FuzzCAM(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x01, 0x02, 0x03, 0x41, 0x04, 0x00, 0x42, 0x81})
	f.Add([]byte{0, 0x05, 0x05, 0x45, 0x05})
	f.Add([]byte{7, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x43, 0x40, 0x09, 0x0a, 0x4f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kinds := make([]uint8, len(data)-1)
		keys := make([]uint8, len(data)-1)
		for i, b := range data[1:] {
			kinds[i], keys[i] = b>>6, b&(camKeys-1)
		}
		if err := checkCAM(1+int(data[0]%8), kinds, keys); err != nil {
			t.Fatal(err)
		}
	})
}
