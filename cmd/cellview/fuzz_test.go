package main

import (
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/crc"
	"repro/internal/ip"
)

// FuzzCellview runs decodeOne on any input under both header formats and
// both -hec modes. It must not panic, a nil error must come with output,
// and in -hec mode the printed byte must be crc.HEC of the input's first
// four bytes.
func FuzzCellview(f *testing.F) {
	f.Add(encodeCellHex(f, atm.Header{Format: atm.UNI, VPI: 3, VCI: 77, PT: atm.PTUserEnd}, 0xab))
	f.Add(encodeCellHex(f, atm.Header{Format: atm.NNI, VPI: 300, VCI: 9, PT: atm.PTUserCongested, CLP: true}, 0x11))
	iph := ip.Header{Proto: ip.ProtoTCP, Src: ip.Addr{10, 0, 0, 1}, Dst: ip.Addr{10, 0, 0, 2}}
	sdu := ip.Encapsulate(ip.LLCSnap, ip.EtherTypeIPv4, iph.Datagram(make([]byte, 12)))
	f.Add(encapCellHex(f, atm.Header{Format: atm.UNI, VCI: 100, PT: atm.PTUser0}, sdu))
	rm := atm.Cell{Header: atm.Header{Format: atm.UNI, VCI: 100, PT: atm.PTResourceMgmt}}
	(&atm.RM{DIR: true, CI: true, ER: 317_952, CCR: 100_000, MCR: 1_413}).Encode(&rm.Payload)
	var wire [atm.CellSize]byte
	if err := rm.Encode(wire[:]); err != nil {
		f.Fatal(err)
	}
	f.Add(hex.EncodeToString(wire[:]))
	for _, s := range []string{"00 00:00 01 52", "00000001", "deadbeef00", "zz"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, format := range []atm.Format{atm.UNI, atm.NNI} {
			for _, hecOnly := range []bool{false, true} {
				var out strings.Builder
				err := decodeOne(&out, input, format, hecOnly)
				if err != nil {
					continue
				}
				if out.Len() == 0 {
					t.Fatalf("decodeOne(%q, %v, hec=%v) printed nothing and returned nil", input, format, hecOnly)
				}
				if hecOnly {
					checkHECLine(t, input, out.String())
				}
			}
		}
	})
}

// checkHECLine decodes input's hex the way cellview cleans it and requires
// the line's "= 0xNN" to be crc.HEC of its first four bytes.
func checkHECLine(t *testing.T, input, line string) {
	t.Helper()
	raw, err := hex.DecodeString(strings.NewReplacer(" ", "", ":", "", "\t", "").Replace(input))
	if err != nil || len(raw) < 4 {
		t.Fatalf("-hec accepted %q (decoded %d bytes, %v)", input, len(raw), err)
	}
	_, val, ok := strings.Cut(line, " = ")
	if !ok {
		t.Fatalf("-hec output %q has no value", line)
	}
	got, err := strconv.ParseUint(strings.TrimSpace(val), 0, 8)
	if err != nil {
		t.Fatalf("-hec output %q: %v", line, err)
	}
	if want := crc.HEC([4]byte(raw[:4])); byte(got) != want {
		t.Fatalf("-hec on %q printed %#02x, want %#02x", input, got, want)
	}
}
