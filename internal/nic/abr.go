package nic

import (
	"repro/internal/atm"
	"repro/internal/tm"
)

// This file is the end-system half of the ABR closed loop (TM 4.0 §5.10):
//
//   - the SOURCE sends one in-band forward RM cell per Nrm cells on the
//     data VC, carrying its current ACR, and re-targets its shaper on
//     every backward RM cell that returns (tm.ABRSource applies the
//     RIF/RDF/ER rate rules, tm.Shaper.SetRate re-derives the bucket);
//   - the DESTINATION turns forward RM cells around — flips DIR, folds the
//     EFCI state of the latest data cell into CI — and injects them onto
//     the same VC back toward the source (the VCC must be duplex, which
//     core enforces when it wires an ABR connection).
//
// RM cells ride the transmit FIFO and the shaper like data cells, so the
// feedback cadence is proportional to the sending rate: a fast source
// probes the network often, a throttled one sips — the property that makes
// Nrm a stable control-loop constant instead of a timer.

// abrTx is the per-VC transmit-side ABR state.
type abrTx struct {
	src     *tm.ABRSource
	sinceRM int // cells sent since the last forward RM cell
}

// SetABR arms ABR rate control on an open VC: the transmit side starts at
// ICR, emits one forward RM cell per Nrm cells, and follows the backward
// RM feedback between MCR and PCR. Defaults are filled per TM 4.0
// (Nrm=32, RIF=RDF=1/16; see tm.ABRParams).
func (i *Interface) SetABR(vc atm.VC, p tm.ABRParams) error {
	st := i.tx.vcs[vc]
	if st == nil {
		return ErrUnknownVC
	}
	p.Normalize()
	if err := p.Validate(); err != nil {
		return err
	}
	st.setShaper(tm.NewShaper(tm.TrafficContract{Class: tm.ABR, PCR: p.ICR, MCR: p.MCR}))
	// Start the RM counter one short of the cadence so the very first data
	// cell is chased by an RM cell: feedback starts one round-trip after
	// the connection opens, not Nrm cells later.
	st.abr = &abrTx{src: tm.NewABRSource(p), sinceRM: p.Nrm - 2}
	return nil
}

// ACR returns the VC's current allowed cell rate in cells/s; ok is false
// unless the VC has ABR armed.
func (i *Interface) ACR(vc atm.VC) (acr float64, ok bool) {
	st, found := i.tx.vcs[vc]
	if !found || st.abr == nil {
		return 0, false
	}
	return st.abr.src.ACR(), true
}

// handleRM is the management-path handler for PT=0b110 cells, dispatched
// ahead of the OAM classifier (RM payloads have their own format).
func (i *Interface) handleRM(c *atm.Cell) {
	var rm atm.RM
	if err := rm.Decode(&c.Payload); err != nil {
		i.rx.badOAM(c)
		return
	}
	if !rm.DIR {
		// Forward RM cell: this interface is the destination. Turn it
		// around — flip the direction, fold the connection's EFCI state
		// into CI — and send it back on the same VC.
		rm.DIR = true
		rm.BN = false
		if i.rx.efciState(c.Header.VC()) {
			rm.CI = true
		}
		rm.Encode(&c.Payload)
		i.mRMTurn.Inc()
		i.tx.injectCell(c)
		return
	}
	// Backward RM cell: this interface is the source. Apply the rate rules
	// and re-target the shaper.
	i.mBRMRx.Inc()
	i.tx.abrFeedback(c.Header.VC(), &rm)
	i.pool.Put(c)
}

// maybeSendFRM emits the next in-band forward RM cell once Nrm−1 cells
// have followed the previous one (the RM cell itself is the Nrm-th). The
// cell spends a shaper slot like any data cell, so RM overhead lives
// inside ACR, not on top of it. A full TX FIFO defers the send to the next
// data-cell boundary rather than dropping the feedback probe.
func (t *transmitter) maybeSendFRM(st *txVC) {
	a := st.abr
	a.sinceRM++
	p := a.src.Params()
	if a.sinceRM < p.Nrm-1 || t.fifo.Full() {
		return
	}
	c := t.pool.Get()
	rm := atm.RM{ER: p.PCR, CCR: a.src.ACR(), MCR: p.MCR}
	rm.Encode(&c.Payload)
	c.Header = atm.Header{
		Format: atm.UNI,
		VPI:    st.vc.VPI,
		VCI:    st.vc.VCI,
		PT:     atm.PTResourceMgmt,
	}
	t.fifo.Admit(c, 0) // room is certain: Full was tested above
	t.mCells.Inc()
	t.mFRM.Inc()
	st.vst.AddCellOut()
	a.sinceRM = 0
	if st.shaper != nil {
		st.nextEligible = st.shaper.NextEligible(t.k.Now())
	}
	t.startClock()
}

// abrFeedback applies one backward RM cell to the VC's rate: the ABRSource
// computes the new ACR, the shaper re-derives its bucket at that rate, and
// the dispatcher is nudged in case the new rate unblocks a pacing wait.
func (t *transmitter) abrFeedback(vc atm.VC, rm *atm.RM) {
	st, ok := t.vcs[vc]
	if !ok || st.abr == nil {
		return
	}
	acr := st.abr.src.Feedback(rm.CI, rm.NI, rm.ER)
	if st.shaper != nil {
		st.shaper.SetRate(t.k.Now(), acr)
		st.nextEligible = st.shaper.Eligible()
		t.schedule()
	}
}

// efciState reports whether vc's most recent data cell arrived with the
// EFCI congestion bit set (TM 4.0 destination behaviour: CI in the turned
// RM cell reflects the EFCI state of the connection).
func (r *receiver) efciState(vc atm.VC) bool {
	idx, _, found := r.lookup.Lookup(vc)
	if !found {
		return false
	}
	return r.vcs[idx].efci
}
