package ip

import (
	"bytes"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
)

// newPair wires two stations with a stack on each and one open VC.
func newPair(t *testing.T, method Method) (k *sim.Kernel, sa, sb *Stack, vc atm.VC) {
	t.Helper()
	vc = atm.VC{VCI: 70}
	net, err := core.NewNetwork(core.NetworkSpec{
		Endpoints: []core.EndpointSpec{{Name: "a"}, {Name: "b"}},
		Links: []core.LinkSpec{{Name: "ab", A: core.NodeRef{Node: "a"}, B: core.NodeRef{Node: "b"},
			Delay: 10_000, Seed: 7}},
		VCCs: []core.VCCSpec{{Name: "ab", From: "a", To: "b", VC: vc, Duplex: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k = net.Kernel()
	sa = NewStack(net.Endpoint("a").Interface(), method, Addr{10, 0, 0, 1})
	sb = NewStack(net.Endpoint("b").Interface(), method, Addr{10, 0, 0, 2})
	return k, sa, sb, vc
}

// send transmits payload as one datagram, built in place the way the
// transport does it.
func send(s *Stack, vc atm.VC, proto uint8, dst Addr, payload []byte) error {
	sdu, p := s.NewDatagram(len(payload))
	copy(p, payload)
	return s.SendDatagram(vc, proto, dst, sdu, nil)
}

func TestStackEndToEnd(t *testing.T) {
	for _, method := range []Method{LLCSnap, VCMux} {
		k, sa, sb, vc := newPair(t, method)
		var got []byte
		var gotHdr Header
		sb.Bind(vc, func(h Header, payload []byte, at sim.Time) {
			gotHdr = h
			got = append([]byte(nil), payload...)
		})
		msg := bytes.Repeat([]byte{0xA5}, 1460)
		if err := send(sa, vc, ProtoTCP, sb.Addr(), msg); err != nil {
			t.Fatal(err)
		}
		k.Run()
		if !bytes.Equal(got, msg) {
			t.Fatalf("%v: payload not delivered intact (%d bytes)", method, len(got))
		}
		if gotHdr.Proto != ProtoTCP || gotHdr.Src != sa.Addr() || gotHdr.Dst != sb.Addr() {
			t.Errorf("%v: header %+v", method, gotHdr)
		}
		if sa.Stats().TxDatagrams != 1 || sb.Stats().RxDatagrams != 1 {
			t.Errorf("%v: stats tx=%d rx=%d", method,
				sa.Stats().TxDatagrams, sb.Stats().RxDatagrams)
		}
	}
}

func TestStackNoHandler(t *testing.T) {
	k, sa, sb, vc := newPair(t, LLCSnap)
	if err := send(sa, vc, ProtoUDP, sb.Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if sb.Stats().NoHandler != 1 {
		t.Errorf("NoHandler = %d", sb.Stats().NoHandler)
	}
	// Bind then unbind: back to NoHandler.
	sb.Bind(vc, func(Header, []byte, sim.Time) {})
	delete(sb.bindVCs, vc)
	send(sa, vc, ProtoUDP, sb.Addr(), []byte("y"))
	k.Run()
	if sb.Stats().NoHandler != 2 {
		t.Errorf("NoHandler after unbind = %d", sb.Stats().NoHandler)
	}
}

func TestStackEncapMismatchCounted(t *testing.T) {
	// Sender speaks VC-mux, receiver expects LLC/SNAP: every frame counts
	// as an encapsulation error and nothing reaches the handler.
	k, sa, sb, vc := newPair(t, VCMux)
	sbLLC := NewStack(sb.Interface(), LLCSnap, sb.Addr())
	delivered := 0
	sbLLC.Bind(vc, func(Header, []byte, sim.Time) { delivered++ })
	send(sa, vc, ProtoTCP, sb.Addr(), []byte("hello"))
	k.Run()
	if delivered != 0 || sbLLC.Stats().EncapErrors != 1 {
		t.Errorf("delivered=%d encapErrors=%d", delivered, sbLLC.Stats().EncapErrors)
	}
}

func TestStackNonIPCounted(t *testing.T) {
	k, sa, sb, vc := newPair(t, LLCSnap)
	delivered := 0
	sb.Bind(vc, func(Header, []byte, sim.Time) { delivered++ })
	// Hand-craft an ARP frame on the same VC.
	sdu := Encapsulate(LLCSnap, EtherTypeARP, []byte{0, 1})
	if err := sa.Interface().Send(vc, sdu, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if delivered != 0 || sb.Stats().NonIP != 1 {
		t.Errorf("delivered=%d nonIP=%d", delivered, sb.Stats().NonIP)
	}
}

func TestStackHeaderErrorCounted(t *testing.T) {
	k, sa, sb, vc := newPair(t, LLCSnap)
	delivered := 0
	sb.Bind(vc, func(Header, []byte, sim.Time) { delivered++ })
	// An LLC/SNAP frame claiming IPv4 whose inner bytes are garbage.
	sdu := Encapsulate(LLCSnap, EtherTypeIPv4, bytes.Repeat([]byte{0xFF}, 24))
	sa.Interface().Send(vc, sdu, nil)
	k.Run()
	if delivered != 0 || sb.Stats().HeaderErrors != 1 {
		t.Errorf("delivered=%d headerErrors=%d", delivered, sb.Stats().HeaderErrors)
	}
}

func TestStackMTUEnforced(t *testing.T) {
	_, sa, sb, vc := newPair(t, LLCSnap)
	if sa.MTU() != sa.Interface().Config().MaxSDU-LLCSnapSize-HeaderSize {
		t.Errorf("MTU = %d", sa.MTU())
	}
	big := make([]byte, sa.MTU()+1)
	if err := send(sa, vc, ProtoTCP, sb.Addr(), big); err == nil {
		t.Error("over-MTU send accepted")
	}
	if err := sa.SendDatagram(vc, ProtoTCP, sb.Addr(), make([]byte, LLCSnapSize+HeaderSize-1), nil); err == nil {
		t.Error("frame without room for its headers accepted")
	}
	if sa.Stats().TxDatagrams != 0 {
		t.Error("failed send counted")
	}
}

func TestStackSendUnknownVC(t *testing.T) {
	_, sa, sb, _ := newPair(t, LLCSnap)
	if err := send(sa, atm.VC{VCI: 999}, ProtoTCP, sb.Addr(), []byte("x")); err == nil {
		t.Error("send on unopened VC accepted")
	}
}

// A datagram's frame comes back to the stack at its transmit-complete
// interrupt, just before the caller's onSent, which fires once; NewDatagram
// then hands the frame out again, zeroed. A frame whose descriptor CloseVC
// drops is never handed out again.
func TestSendDatagramRecyclesFrame(t *testing.T) {
	const n = 1000
	same := func(a, b []byte) bool { return &a[0] == &b[0] }
	k, sa, sb, vc := newPair(t, LLCSnap)

	frame, p := sa.NewDatagram(n)
	for i := range p {
		p[i] = 0xff
	}
	sent := 0
	onSent := func() {
		sent++
		again, _ := sa.NewDatagram(n)
		if !same(again, frame) {
			t.Error("at onSent NewDatagram handed out another frame: the sent one is not back")
		}
		if !bytes.Equal(again, make([]byte, len(again))) {
			t.Error("NewDatagram handed the frame out again without zeroing it")
		}
	}
	if err := sa.SendDatagram(vc, ProtoUDP, sb.Addr(), frame, onSent); err != nil {
		t.Fatal(err)
	}
	if other, _ := sa.NewDatagram(n); same(other, frame) {
		t.Fatal("the frame came back before its transmit-complete interrupt")
	}
	k.Run()
	if sent != 1 {
		t.Fatalf("onSent fired %d times, want once", sent)
	}

	dropped, _ := sa.NewDatagram(n)
	if err := sa.SendDatagram(vc, ProtoUDP, sb.Addr(), dropped, func() {
		t.Error("onSent fired for a descriptor CloseVC dropped")
	}); err != nil {
		t.Fatal(err)
	}
	sa.Interface().CloseVC(vc)
	k.Run()
	if again, _ := sa.NewDatagram(n); same(again, dropped) {
		t.Fatal("NewDatagram handed out a frame whose descriptor was dropped")
	}
}
