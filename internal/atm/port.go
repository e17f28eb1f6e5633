package atm

// The cell-port contract: every stage of the simulated datapath — interface
// transmit/receive halves, fiber links, SONET framer halves, switch ports —
// exchanges cells through the same two one-method interfaces instead of
// bespoke SetOutput/SetSink/AttachOutput setters. A topology is then just a
// chain of AttachSink calls, which is what core.NewNetwork builds from a
// declarative spec.
//
// Ownership rule: a *Cell passed to DeliverCell is owned by the callee until
// it hands the cell onward or returns it to its kernel's Pool. Producers must
// not retain or reuse a cell after delivering it; consumers that drop a cell
// must recycle it (every station, switch and fiber on a kernel shares one
// Pool, so a leaked cell costs an allocation on the next Pool.Get).
// Delivery order is preserved per
// producer: a stage must emit cells downstream in the order it committed
// them to the wire.

// CellConsumer is the universal cell sink: anything cells can be delivered
// into. nic.Interface, phy.CellLink, netsim switch ports and sonetlink
// halves all implement it.
type CellConsumer interface {
	// DeliverCell accepts one cell, taking ownership.
	DeliverCell(*Cell)
}

// CellProducer is the universal cell source: anything that emits cells
// toward a single attached consumer.
type CellProducer interface {
	// AttachSink connects the producer's output. Attaching replaces any
	// previous sink and takes effect for cells not yet delivered (a link's
	// in-flight cells arrive at the new sink). Implementations panic on a
	// nil sink — an unwired producer is a build error, not a runtime state.
	AttachSink(CellConsumer)
}

// CellConduit is a full datapath stage: cells in, cells out.
type CellConduit interface {
	CellConsumer
	CellProducer
}

// SinkFunc adapts a plain func(*Cell) — a trace tap, a test collector — to
// the CellConsumer interface.
type SinkFunc func(*Cell)

// DeliverCell implements CellConsumer.
func (f SinkFunc) DeliverCell(c *Cell) { f(c) }
