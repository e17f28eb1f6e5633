package main

import (
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/ip"
)

func encodeCellHex(t testing.TB, h atm.Header, fill byte) string {
	t.Helper()
	c := atm.Cell{Header: h}
	for i := range c.Payload {
		c.Payload[i] = fill
	}
	var wire [atm.CellSize]byte
	if err := c.Encode(wire[:]); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, x := range wire {
		b.WriteString(strings.ToLower(strings.TrimPrefix(hexByte(x), "0x")))
	}
	return b.String()
}

func hexByte(b byte) string {
	const digits = "0123456789abcdef"
	return "0x" + string(digits[b>>4]) + string(digits[b&0xf])
}

func TestDecodeFullCell(t *testing.T) {
	h := atm.Header{Format: atm.UNI, VPI: 3, VCI: 77, PT: atm.PTUserEnd}
	var out strings.Builder
	if err := decodeOne(&out, encodeCellHex(t, h, 0xab), atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"VPI 3", "VCI 77", "AAL5 end of frame", "abab"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDecodeHeaderOnly(t *testing.T) {
	h := atm.Header{Format: atm.UNI, VPI: 1, VCI: 2, PT: atm.PTUser0}
	var buf [5]byte
	if err := h.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	hexStr := ""
	for _, b := range buf {
		hexStr += strings.TrimPrefix(hexByte(b), "0x")
	}
	var out strings.Builder
	if err := decodeOne(&out, hexStr, atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "VCI 2") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestDecodeCorrectsHeaderBit(t *testing.T) {
	h := atm.Header{Format: atm.UNI, VPI: 0, VCI: 9, PT: atm.PTUser0}
	var buf [5]byte
	h.Encode(buf[:])
	buf[2] ^= 0x01
	hexStr := ""
	for _, b := range buf {
		hexStr += strings.TrimPrefix(hexByte(b), "0x")
	}
	var out strings.Builder
	if err := decodeOne(&out, hexStr, atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "corrected") {
		t.Fatalf("correction not reported:\n%s", out.String())
	}
}

func TestDecodeSpacedAndColonedHex(t *testing.T) {
	var out strings.Builder
	if err := decodeOne(&out, "00 00:00 01 52", atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "idle/unassigned") {
		t.Fatalf("idle cell not flagged:\n%s", out.String())
	}
}

func TestHECMode(t *testing.T) {
	var out strings.Builder
	if err := decodeOne(&out, "00000001", atm.UNI, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0x52") {
		t.Fatalf("HEC output:\n%s", out.String())
	}
}

func TestDecodeErrors(t *testing.T) {
	var out strings.Builder
	if err := decodeOne(&out, "zz", atm.UNI, false); err == nil {
		t.Fatal("bad hex accepted")
	}
	if err := decodeOne(&out, "0102", atm.UNI, false); err == nil {
		t.Fatal("short input accepted")
	}
	if err := decodeOne(&out, "deadbeef00", atm.UNI, false); err == nil {
		t.Fatal("garbage header accepted")
	}
	if err := decodeOne(&out, "01", atm.UNI, true); err == nil {
		t.Fatal("short HEC input accepted")
	}
}

func TestDecodeCLPAndEFCI(t *testing.T) {
	h := atm.Header{Format: atm.UNI, VPI: 0, VCI: 42, PT: atm.PTUserCongested, CLP: true}
	var out strings.Builder
	if err := decodeOne(&out, encodeCellHex(t, h, 0x11), atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"CLP 1 (discard eligible)", "EFCI: congestion experienced"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// EFCI + end of frame decode together.
	h.PT = atm.PTUserCongestedEnd
	h.CLP = false
	out.Reset()
	if err := decodeOne(&out, encodeCellHex(t, h, 0x11), atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	got = out.String()
	for _, want := range []string{"CLP 0", "EFCI", "AAL5 end of frame"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// A clean cell shows neither flag.
	h.PT = atm.PTUser0
	out.Reset()
	if err := decodeOne(&out, encodeCellHex(t, h, 0x11), atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "EFCI") || strings.Contains(out.String(), "discard eligible") {
		t.Fatalf("spurious flags:\n%s", out.String())
	}
}

func encapCellHex(t testing.TB, h atm.Header, sdu []byte) string {
	t.Helper()
	c := atm.Cell{Header: h}
	copy(c.Payload[:], sdu)
	var wire [atm.CellSize]byte
	if err := c.Encode(wire[:]); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, x := range wire {
		b.WriteString(strings.TrimPrefix(hexByte(x), "0x"))
	}
	return b.String()
}

func TestDecodeLLCSnapIPv4(t *testing.T) {
	// A short datagram: header + 12 payload bytes fit entirely inside one
	// cell behind the 8-byte LLC/SNAP header.
	iph := ip.Header{Proto: ip.ProtoTCP, Src: ip.Addr{10, 0, 0, 1}, Dst: ip.Addr{10, 0, 0, 2}}
	sdu := ip.Encapsulate(ip.LLCSnap, ip.EtherTypeIPv4, iph.Datagram(make([]byte, 12)))
	h := atm.Header{Format: atm.UNI, VPI: 0, VCI: 100, PT: atm.PTUser0}
	var out strings.Builder
	if err := decodeOne(&out, encapCellHex(t, h, sdu), atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"llc/snap", "0x0800 (IPv4)", "10.0.0.1 -> 10.0.0.2",
		"proto tcp", "len 32 (12 payload bytes in this cell)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDecodeLLCSnapIPv4Truncated(t *testing.T) {
	// A full-size datagram: only its front rides in the first cell, and the
	// decoder reports the continuation instead of rejecting it.
	iph := ip.Header{Proto: ip.ProtoUDP, Src: ip.Addr{192, 168, 1, 1}, Dst: ip.Addr{192, 168, 1, 2}}
	sdu := ip.Encapsulate(ip.LLCSnap, ip.EtherTypeIPv4, iph.Datagram(make([]byte, 1000)))
	h := atm.Header{Format: atm.UNI, VPI: 0, VCI: 100, PT: atm.PTUser0}
	var out strings.Builder
	if err := decodeOne(&out, encapCellHex(t, h, sdu[:atm.PayloadSize]), atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"llc/snap", "192.168.1.1 -> 192.168.1.2", "proto udp",
		"len 1020 [continues beyond this cell]"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDecodeLLCSnapNonIP(t *testing.T) {
	// An ARP EtherType decodes the encapsulation but goes no deeper.
	sdu := ip.Encapsulate(ip.LLCSnap, ip.EtherTypeARP, make([]byte, 28))
	h := atm.Header{Format: atm.UNI, VPI: 0, VCI: 100, PT: atm.PTUser0}
	var out strings.Builder
	if err := decodeOne(&out, encapCellHex(t, h, sdu), atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "0x0806 (ARP)") {
		t.Fatalf("ARP EtherType not decoded:\n%s", got)
	}
	if strings.Contains(got, "ipv4") {
		t.Fatalf("spurious ipv4 decode:\n%s", got)
	}
}

func TestDecodePlainPayloadNoEncap(t *testing.T) {
	// A payload that is not LLC/SNAP prints no encapsulation lines.
	h := atm.Header{Format: atm.UNI, VPI: 0, VCI: 100, PT: atm.PTUser0}
	var out strings.Builder
	if err := decodeOne(&out, encodeCellHex(t, h, 0x42), atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "llc/snap") {
		t.Fatalf("spurious llc/snap decode:\n%s", out.String())
	}
}

func TestDecodeRMCell(t *testing.T) {
	// A backward RM cell with CI set decodes direction, feedback bits and
	// the three rates.
	c := atm.Cell{Header: atm.Header{Format: atm.UNI, VPI: 0, VCI: 100, PT: atm.PTResourceMgmt}}
	rm := atm.RM{DIR: true, CI: true, ER: 317_952, CCR: 100_000, MCR: 1_413}
	rm.Encode(&c.Payload)
	var wire [atm.CellSize]byte
	if err := c.Encode(wire[:]); err != nil {
		t.Fatal(err)
	}
	hexStr := ""
	for _, b := range wire {
		hexStr += strings.TrimPrefix(hexByte(b), "0x")
	}
	var out strings.Builder
	if err := decodeOne(&out, hexStr, atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"abr backward (dest->source)", "CI (congestion)", "ER 317952", "CCR 99968", "MCR 1414"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "NI (no increase)") || strings.Contains(got, "BN (switch-generated)") {
		t.Fatalf("spurious flags:\n%s", got)
	}

	// A corrupted RM payload reports itself instead of printing garbage.
	c.Payload[4] ^= 0xff
	if err := c.Encode(wire[:]); err != nil {
		t.Fatal(err)
	}
	hexStr = ""
	for _, b := range wire {
		hexStr += strings.TrimPrefix(hexByte(b), "0x")
	}
	out.Reset()
	if err := decodeOne(&out, hexStr, atm.UNI, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rm        undecodable") {
		t.Fatalf("corrupt RM not flagged:\n%s", out.String())
	}
}
