package nic

import (
	"repro/internal/aal"
	"repro/internal/atm"
	"repro/internal/bufmgr"
	"repro/internal/sim"
)

// The host touches the interface once per packet in each direction: on
// transmit it posts a descriptor and later takes the transmit-complete
// interrupt; on receive the adapter DMAs the frame and raises one
// interrupt. Each hand-off is a record that moves from stage to stage
// through method values bound when the record is first made, and retired
// records wait on a free list, so a steady flow reuses a few records and
// allocates nothing for the hand-off itself.

// txDesc is one transmit descriptor, from Send to the transmit-complete
// interrupt:
//
//	host stack (TxPacket) → descriptor PIO → transmitter queue →
//	segmentation → transmit-complete interrupt → onSent
type txDesc struct {
	i      *Interface
	st     *txVC // the VC's transmit record, resolved by send
	sdu    []byte
	pooled bool // sdu is Send's copy, drawn from the interface buffer pool
	onSent func()

	postFn     func() // bound post, the host stack's completion
	enqueueFn  func() // bound enqueue, the descriptor PIO's completion
	completeFn func() // bound complete, the interrupt's completion
	next       *txDesc
}

// send is the one transmit path behind Send and SendOwned, which differ
// only in the untimed copy: with pooled set, the interface transmits from
// a copy of sdu drawn from its buffer pool.
func (i *Interface) send(vc atm.VC, sdu []byte, pooled bool, onSent func()) error {
	if len(sdu) == 0 || len(sdu) > i.cfg.MaxSDU {
		return ErrBadSDU
	}
	st := i.tx.vcs[vc]
	if st == nil {
		return ErrUnknownVC
	}
	if pooled {
		buf := i.buf.Get(len(sdu))
		copy(buf, sdu)
		sdu = buf
	}
	d := i.freeTx
	if d == nil {
		d = &txDesc{i: i}
		d.postFn = d.post
		d.enqueueFn = d.enqueue
		d.completeFn = d.complete
	} else {
		i.freeTx = d.next
		d.next = nil
	}
	d.st, d.sdu, d.pooled, d.onSent = st, sdu, pooled, onSent
	i.hst.TxPacket(len(sdu), d.postFn)
	return nil
}

// DescriptorWords is the size of a transmit descriptor: the driver writes
// this many words across the bus by programmed I/O for every Send.
const DescriptorWords = 4

// post is the host stack's completion: the driver writes the descriptor
// across the bus.
func (d *txDesc) post() { d.i.hostDev.PIO(DescriptorWords, d.enqueueFn) }

// enqueue hands the descriptor to the adapter. A VC closed while the host
// was posting drops it, unless the VC has been reopened since.
func (d *txDesc) enqueue() {
	if !d.i.tx.enqueue(d) {
		d.drop()
	}
}

// sent runs when the transmitter has segmented the frame: Send's copy
// recycles and the host takes the transmit-complete interrupt.
func (d *txDesc) sent() {
	d.releaseSDU()
	d.i.hst.TxCompleteInterrupt(d.completeFn)
}

// complete is the transmit-complete interrupt's completion.
func (d *txDesc) complete() {
	onSent := d.onSent
	d.retire()
	if onSent != nil {
		onSent()
	}
}

// drop retires a descriptor that will never be transmitted; its onSent
// does not fire.
func (d *txDesc) drop() {
	d.releaseSDU()
	d.retire()
}

// releaseSDU recycles Send's copy; a SendOwned buffer goes back to its
// caller untouched.
func (d *txDesc) releaseSDU() {
	if d.pooled {
		d.i.buf.Put(d.sdu)
	}
	d.sdu, d.pooled = nil, false
}

func (d *txDesc) retire() {
	d.st, d.onSent = nil, nil
	d.next = d.i.freeTx
	d.i.freeTx = d
}

// rxDone is one received frame's completion, from the end-of-packet
// routine to delivery:
//
//	end-of-packet routine → completion DMA → receive interrupt → onDeliver
type rxDone struct {
	r      *receiver
	e      int
	st     *rxVC
	sl     *rxSlot // the completed frame's slot
	sdu    []byte  // the host's receive buffer, from the receive pool
	cells  int
	mid    uint16
	frame  *bufmgr.Frame
	posted sim.Time // when the receive interrupt was raised

	eopFn  func() // bound eop, the end-of-packet routine's completion
	dmaFn  func() // bound dma, the completion DMA's completion
	intrFn func() // bound intr, the receive interrupt's completion
	next   *rxDone
}

// completeFrame runs the end-of-packet firmware, DMAs the assembled SDU to
// host memory, and posts the per-packet interrupt.
func (r *receiver) completeFrame(e int, st *rxVC, sl *rxSlot, res *aal.Result) {
	r.hReassembly.Observe(r.k.Now() - sl.start)
	r.spReasm.Span(st.vc, sl.start)
	if st.mids != nil {
		// The completed MID stream's slot leaves the VC with this record,
		// so neither the reassembly GC nor a later frame on the same MID
		// can touch the buffer the DMA below still reads.
		delete(st.mids, res.MID)
	}
	d := r.freeDone
	if d == nil {
		d = &rxDone{r: r}
		d.eopFn = d.eop
		d.dmaFn = d.dma
		d.intrFn = d.intr
	} else {
		r.freeDone = d.next
		d.next = nil
	}
	// The reassembler's result lives only until its next Push. Data
	// effects happen eagerly, so the frame moves into a host receive
	// buffer now; the DMA below decides when the host sees it.
	d.sdu = r.bufs.Get(len(res.SDU))
	copy(d.sdu, res.SDU)
	d.e, d.st, d.sl, d.cells, d.mid = e, st, sl, res.Cells, res.MID
	r.engs[e].Run(rxEOPInstr, d.eopFn)
}

// eop is the end-of-packet routine's completion: the completion DMA starts.
func (d *rxDone) eop() {
	r := d.r
	d.frame, d.sl.frame = d.sl.frame, nil
	r.dev.DMA(len(d.sdu), d.dmaFn)
	// The engine moves on while the DMA and interrupt complete in the
	// background — the pipelining that makes per-packet host involvement
	// cheap.
	r.next(d.e)
}

// dma is the completion DMA's completion: the adapter buffer is free once
// the data has left it, and the host is interrupted.
func (d *rxDone) dma() {
	if d.frame != nil {
		d.frame.Release()
		d.frame = nil
	}
	d.posted = d.r.k.Now()
	d.r.hst.RxPacketInterrupt(len(d.sdu), d.intrFn)
}

// intr is the receive interrupt's completion: count the frame and lend it
// to the host, whose buffer returns to the receive pool when the callback
// does.
func (d *rxDone) intr() {
	r, st := d.r, d.st
	r.hIntrService.Observe(r.k.Now() - d.posted)
	n := len(d.sdu)
	r.mPackets.Inc()
	r.mBytes.Add(uint64(n))
	st.vst.AddSDUIn(n)
	r.spDeliver.Point(st.vc)
	dv := Delivered{VC: st.vc, SDU: d.sdu, Cells: d.cells, MID: d.mid, At: r.k.Now()}
	d.st, d.sl, d.sdu = nil, nil, nil
	d.next = r.freeDone
	r.freeDone = d
	if r.onDeliver != nil {
		r.onDeliver(dv)
	}
	r.bufs.Put(dv.SDU)
}
