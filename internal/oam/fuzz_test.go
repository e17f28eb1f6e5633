package oam

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/crc"
)

// FuzzOAMDecode runs the management-cell decoders over an arbitrary 48-byte
// payload, as given and again with the CRC-10 fixed up so the field
// decoders are reached, under a fuzzed payload type. Beyond not panicking:
//   - Classify accepts exactly the payloads whose CRC-10 verifies, and then
//     returns the first byte's type and function nibbles;
//   - an Alarm or Loopback that decodes re-encodes to a payload that
//     decodes to the same value;
//   - Respond answers only a management cell (a non-user payload type)
//     carrying a loopback request, with the same loopback, indication
//     cleared; a cell it refuses keeps its payload.
func FuzzOAMDecode(f *testing.F) {
	vc := atm.VC{VCI: 100}
	req := NewRequest(vc, 0xdeadbeef, LocationID("station-a"))
	resp := NewRequest(vc, 7, LocationID("station-b"))
	if err := Respond(resp); err != nil {
		f.Fatal(err)
	}
	for _, c := range []*atm.Cell{req, resp, NewAIS(vc, LocationID("sw")), NewRDI(vc, EndpointLocation)} {
		f.Add(c.Payload[:], uint8(c.Header.PT))
	}
	f.Fuzz(func(t *testing.T, data []byte, pt uint8) {
		var p [atm.PayloadSize]byte
		copy(p[:], data)
		fixed := p
		crc.CRC10Fill(fixed[:])
		for _, in := range []*[atm.PayloadSize]byte{&p, &fixed} {
			typ, fn, ok := Classify(in)
			if ok != crc.CRC10Check(in[:]) || ok && (typ != in[0]>>4 || fn != in[0]&0x0f) {
				t.Fatalf("Classify(% x) = %#x, %#x, %v", in[:2], typ, fn, ok)
			}

			var a Alarm
			if a.Decode(in) == nil {
				var out [atm.PayloadSize]byte
				a.Encode(&out)
				var again Alarm
				if err := again.Decode(&out); err != nil || again != a {
					t.Fatalf("alarm %+v re-encodes to one that decodes to %+v (err %v)", a, again, err)
				}
			}

			var lb Loopback
			lbErr := lb.Decode(in)
			if lbErr == nil {
				var out [atm.PayloadSize]byte
				lb.Encode(&out)
				var again Loopback
				if err := again.Decode(&out); err != nil || again != lb {
					t.Fatalf("loopback %+v re-encodes to one that decodes to %+v (err %v)", lb, again, err)
				}
			}

			c := &atm.Cell{Header: atm.Header{Format: atm.UNI, VCI: 100, PT: atm.PT(pt & 0b111)}, Payload: *in}
			if err := Respond(c); err != nil {
				if c.Payload != *in {
					t.Fatalf("refused cell (%v) had its payload changed", err)
				}
				continue
			}
			var answer Loopback
			if c.Header.PT.User() || lbErr != nil || !lb.Indication {
				t.Fatalf("Respond answered PT %03b, loopback %+v (err %v)", c.Header.PT, lb, lbErr)
			}
			if err := answer.Decode(&c.Payload); err != nil || answer.Indication {
				t.Fatalf("response decodes to %+v (err %v)", answer, err)
			}
			answer.Indication = true
			if answer != lb {
				t.Fatalf("response %+v answers request %+v", answer, lb)
			}
		}
	})
}
