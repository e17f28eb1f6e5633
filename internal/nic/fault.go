package nic

import (
	"fmt"
	"sort"

	"repro/internal/atm"
	"repro/internal/metrics"
	"repro/internal/oam"
	"repro/internal/sim"
)

// F5 fault management (ITU-T I.610), adapter side. The receive firmware
// keeps one alarm row per connection in adapter SRAM. An arriving AIS cell
// declares the AIS defect on its VC; an arriving RDI cell declares RDI; a
// loss of signal on the local receive fiber declares LOS for the whole
// link. Declared defects behave like the standard's soak timers, scaled to
// simulation time: each defect indication re-arms a clear timer
// (Config.AlarmClearTimeout), and the defect clears when the timer expires
// with no fresh indication. While any AIS or LOS defect stands, the
// firmware transmits one RDI cell upstream per Config.AlarmPeriod on each
// affected VC, so the far transmitter learns its cells are dying.
//
// The host is involved only at declare/clear transitions — one interrupt
// per edge, never per cell, preserving the architecture's per-packet (here:
// per-event) host-involvement rule.

// AlarmKind classifies a fault-management event reported to the host.
type AlarmKind uint8

const (
	// AlarmAIS: AIS cells are arriving — a node upstream of our receive
	// direction has detected a failure.
	AlarmAIS AlarmKind = iota
	// AlarmRDI: RDI cells are arriving — the far endpoint cannot hear us;
	// our transmit direction is failing somewhere downstream.
	AlarmRDI
	// AlarmLOS: the local receive fiber itself has gone dark (link scope;
	// the event's VC field is the zero value).
	AlarmLOS
)

// String implements fmt.Stringer.
func (a AlarmKind) String() string {
	switch a {
	case AlarmAIS:
		return "AIS"
	case AlarmRDI:
		return "RDI"
	case AlarmLOS:
		return "LOS"
	default:
		return "alarm?"
	}
}

// AlarmEvent is one declare (Raised) or clear (!Raised) transition,
// delivered to the handler registered with Interface.OnAlarm after the
// host's alarm interrupt completes.
type AlarmEvent struct {
	VC     atm.VC // zero value for link-scope LOS
	Kind   AlarmKind
	Raised bool
	At     sim.Time
}

// String implements fmt.Stringer.
func (e AlarmEvent) String() string {
	edge := "cleared"
	if e.Raised {
		edge = "raised"
	}
	if e.Kind == AlarmLOS {
		return fmt.Sprintf("%v %s (link scope)", e.Kind, edge)
	}
	return fmt.Sprintf("%v %s on vc %v", e.Kind, edge, e.VC)
}

// vcAlarm is one per-VC alarm row.
type vcAlarm struct {
	vc       atm.VC
	aisOn    bool
	rdiOn    bool
	losOn    bool // link LOS propagated into this VC's row: drives RDI generation
	aisClear *sim.Event
	rdiClear *sim.Event
}

func (a *vcAlarm) active() bool { return a.aisOn || a.rdiOn || a.losOn }

// faultMgr is the firmware alarm state machine for one interface.
type faultMgr struct {
	i       *Interface
	k       *sim.Kernel
	period  sim.Duration
	clearTO sim.Duration
	locID   [16]byte

	alarms map[atm.VC]*vcAlarm
	order  []atm.VC // row-creation order: deterministic tick iteration
	los    bool
	onTick bool
	tickFn func()

	onAlarm func(AlarmEvent)

	mAISRx  *metrics.Counter
	mRDIRx  *metrics.Counter
	mRDITx  *metrics.Counter
	mEvents *metrics.Counter
}

func newFaultMgr(i *Interface) *faultMgr {
	fm := &faultMgr{
		i:       i,
		k:       i.k,
		period:  i.cfg.AlarmPeriod,
		clearTO: i.cfg.AlarmClearTimeout,
		locID:   oam.LocationID(i.cfg.Name),
		alarms:  make(map[atm.VC]*vcAlarm),
		mAISRx:  i.reg.Counter(scoped(i.cfg.Name, "nic.fm.ais_rx")),
		mRDIRx:  i.reg.Counter(scoped(i.cfg.Name, "nic.fm.rdi_rx")),
		mRDITx:  i.reg.Counter(scoped(i.cfg.Name, "nic.fm.rdi_tx")),
		mEvents: i.reg.Counter(scoped(i.cfg.Name, "nic.fm.events")),
	}
	fm.tickFn = fm.tick
	return fm
}

// row returns (creating if needed) vc's alarm state row.
func (fm *faultMgr) row(vc atm.VC) *vcAlarm {
	a, ok := fm.alarms[vc]
	if !ok {
		a = &vcAlarm{vc: vc}
		fm.alarms[vc] = a
		fm.order = append(fm.order, vc)
	}
	return a
}

// close drops vc's alarm row when the connection is torn down.
func (fm *faultMgr) close(vc atm.VC) {
	a, ok := fm.alarms[vc]
	if !ok {
		return
	}
	if a.aisClear != nil {
		fm.k.Cancel(a.aisClear)
	}
	if a.rdiClear != nil {
		fm.k.Cancel(a.rdiClear)
	}
	delete(fm.alarms, vc)
	for n, v := range fm.order {
		if v == vc {
			fm.order = append(fm.order[:n], fm.order[n+1:]...)
			break
		}
	}
}

// notify posts the alarm interrupt and hands the event to the host handler.
// One interrupt per transition; the handler runs after the host CPU has
// paid entry + body + exit.
func (fm *faultMgr) notify(ev AlarmEvent) {
	fm.mEvents.Inc()
	fm.i.hst.Interrupt(alarmIntrInstr, func() {
		if fm.onAlarm != nil {
			fm.onAlarm(ev)
		}
	})
}

// rxAIS handles one received AIS cell on vc. Called from the OAM dispatch
// on the engine that popped the cell; the alarm-row update is charged as
// its own firmware routine.
func (fm *faultMgr) rxAIS(e int, vc atm.VC) {
	fm.mAISRx.Inc()
	fm.i.rx.engs[e].Run(rxAlarmInstr, func() {
		a := fm.row(vc)
		fm.refresh(&a.aisClear, func() { fm.clearAIS(a) })
		if !a.aisOn {
			a.aisOn = true
			fm.notify(AlarmEvent{VC: vc, Kind: AlarmAIS, Raised: true, At: fm.k.Now()})
		}
		fm.ensureTick()
	})
}

// rxRDI handles one received RDI cell on vc. RDI is terminal state — it
// reports our transmit direction dead; nothing further is generated.
func (fm *faultMgr) rxRDI(e int, vc atm.VC) {
	fm.mRDIRx.Inc()
	fm.i.rx.engs[e].Run(rxAlarmInstr, func() {
		a := fm.row(vc)
		fm.refresh(&a.rdiClear, func() { fm.clearRDI(a) })
		if !a.rdiOn {
			a.rdiOn = true
			fm.notify(AlarmEvent{VC: vc, Kind: AlarmRDI, Raised: true, At: fm.k.Now()})
		}
	})
}

// refresh re-arms a defect's clear timer: each fresh indication pushes the
// clear point out by the soak interval.
func (fm *faultMgr) refresh(slot **sim.Event, clear func()) {
	at := fm.k.Now() + sim.Time(fm.clearTO)
	if *slot != nil && (*slot).Scheduled() {
		fm.k.Reschedule(*slot, at)
		return
	}
	*slot = fm.k.At(at, clear)
}

func (fm *faultMgr) clearAIS(a *vcAlarm) {
	a.aisClear = nil
	if !a.aisOn {
		return
	}
	a.aisOn = false
	fm.notify(AlarmEvent{VC: a.vc, Kind: AlarmAIS, Raised: false, At: fm.k.Now()})
}

func (fm *faultMgr) clearRDI(a *vcAlarm) {
	a.rdiClear = nil
	if !a.rdiOn {
		return
	}
	a.rdiOn = false
	fm.notify(AlarmEvent{VC: a.vc, Kind: AlarmRDI, Raised: false, At: fm.k.Now()})
}

// signalChange implements the phy.SignalConsumer wiring: the receive
// framer's carrier went down (LOS) or came back. Link scope — every open
// VC's row enters or leaves the LOS defect, which drives upstream RDI
// until the light returns.
func (fm *faultMgr) signalChange(up bool) {
	if fm.los == !up {
		return
	}
	fm.los = !up
	if !up {
		for _, vc := range fm.i.rx.openVCs() {
			fm.row(vc).losOn = true
		}
		fm.notify(AlarmEvent{Kind: AlarmLOS, Raised: true, At: fm.k.Now()})
		fm.ensureTick()
		return
	}
	for _, a := range fm.alarms {
		a.losOn = false
	}
	fm.notify(AlarmEvent{Kind: AlarmLOS, Raised: false, At: fm.k.Now()})
}

// anyDefect reports whether any row still needs the periodic tick.
func (fm *faultMgr) anyDefect() bool {
	for _, a := range fm.alarms {
		if a.aisOn || a.losOn {
			return true
		}
	}
	return false
}

// ensureTick starts the periodic fault-management routine if a defect is
// standing and the timer isn't already running. The tick self-terminates
// when every defect has cleared, so an idle simulation drains.
func (fm *faultMgr) ensureTick() {
	if fm.onTick || !fm.anyDefect() {
		return
	}
	fm.onTick = true
	fm.k.PostAfter(fm.period, fm.tickFn)
}

// tick runs once per AlarmPeriod while any AIS/LOS defect stands: for each
// affected VC (row-creation order — deterministic) the firmware builds one
// RDI cell and injects it into the transmit FIFO.
func (fm *faultMgr) tick() {
	fm.onTick = false
	if !fm.anyDefect() {
		return
	}
	for _, vc := range fm.order {
		a := fm.alarms[vc]
		if a == nil || (!a.aisOn && !a.losOn) {
			continue
		}
		fm.sendRDI(vc)
	}
	fm.onTick = true
	fm.k.PostAfter(fm.period, fm.tickFn)
}

// sendRDI builds and transmits one RDI cell upstream on vc, cycle-costed as
// a generation routine on the VC's receive engine (the engine that owns the
// alarm row).
func (fm *faultMgr) sendRDI(vc atm.VC) {
	e := fm.i.rx.engineFor(vc)
	fm.i.rx.engs[e].Run(oamGenInstr, func() {
		tmpl := oam.NewRDI(vc, fm.locID)
		cell := fm.i.pool.Get()
		*cell = *tmpl
		if !fm.i.tx.injectCell(cell) {
			return // dropped, with its cause, by the full FIFO
		}
		fm.mRDITx.Inc()
	})
}

// FMStats is the fault-management snapshot.
type FMStats struct {
	AISRx  uint64 // AIS cells received
	RDIRx  uint64 // RDI cells received
	RDITx  uint64 // RDI cells generated and transmitted
	Events uint64 // declare/clear transitions reported to the host
	LOS    bool   // receive signal currently lost
}

func (fm *faultMgr) snapshot() FMStats {
	return FMStats{
		AISRx:  fm.mAISRx.Value(),
		RDIRx:  fm.mRDIRx.Value(),
		RDITx:  fm.mRDITx.Value(),
		Events: fm.mEvents.Value(),
		LOS:    fm.los,
	}
}

// openVCs returns the receiver's open connections in VC order, for
// deterministic link-scope iteration.
func (r *receiver) openVCs() []atm.VC {
	vcs := make([]atm.VC, 0, r.lookup.Len())
	for _, st := range r.vcs {
		if st != nil {
			vcs = append(vcs, st.vc)
		}
	}
	sort.Slice(vcs, func(a, b int) bool {
		if vcs[a].VPI != vcs[b].VPI {
			return vcs[a].VPI < vcs[b].VPI
		}
		return vcs[a].VCI < vcs[b].VCI
	})
	return vcs
}
