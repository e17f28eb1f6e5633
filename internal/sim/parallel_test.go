package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// pingNode is a toy protocol node: on receiving a token it logs the arrival
// and bounces it back over its outgoing "link" after a fixed think time.
// The link is abstracted as a send function so the same node code runs on a
// serial kernel (plain Post) and across a partition boundary (Mailbox).
type pingNode struct {
	k     *Kernel
	name  string
	rng   *Rand
	delay Duration // link propagation delay
	think Duration
	send  func(at, pt Time, afn func(any), arg any)
	peer  *pingNode
	log   []string
	left  int
}

func (n *pingNode) recv(arg any) {
	tok := arg.(*int)
	n.log = append(n.log, fmt.Sprintf("%s t=%d tok=%d rng=%d", n.name, n.k.Now(), *tok, n.rng.Intn(1000)))
	if n.left == 0 {
		return
	}
	n.left--
	*tok++
	n.k.PostAfter(n.think, func() {
		n.send(n.k.Now()+n.delay, n.k.Now(), n.peer.recv, tok)
	})
}

// buildPair wires two ping nodes over a duplex link with the given delay,
// using the given conduits, and injects the first token toward B.
func buildPair(ka, kb *Kernel, delay Duration,
	sendAB, sendBA func(at, pt Time, afn func(any), arg any)) (*pingNode, *pingNode) {
	a := &pingNode{k: ka, name: "a", rng: NewRand(7), delay: delay, think: 300, send: sendAB, left: 20}
	b := &pingNode{k: kb, name: "b", rng: NewRand(9), delay: delay, think: 500, send: sendBA, left: 20}
	a.peer, b.peer = b, a
	tok := new(int)
	ka.Post(100, func() {
		a.send(ka.Now()+a.delay, ka.Now(), b.recv, tok)
	})
	return a, b
}

// TestGroupGoldenPingPong pins a two-partition Group run byte-identical to
// the serial kernel: same per-node event logs, same RNG draws, same final
// clock.
func TestGroupGoldenPingPong(t *testing.T) {
	const delay = 2000

	// Serial reference: both nodes on one kernel, links are plain posts
	// (pt/lane are implicit).
	ks := NewKernel()
	post := func(at, pt Time, afn func(any), arg any) { ks.Post(at, func() { afn(arg) }) }
	sa, sb := buildPair(ks, ks, delay, post, post)
	serialEnd := ks.Run()

	// Parallel: one kernel per node, a mailbox per direction.
	ka, kb := NewKernel(), NewKernel()
	g := NewGroup([]*Kernel{ka, kb})
	mab := g.Mailbox(ka, kb, delay)
	mba := g.Mailbox(kb, ka, delay)
	pa, pb := buildPair(ka, kb, delay, mab.Post, mba.Post)
	parEnd := g.Run()
	g.Close()

	if serialEnd != parEnd {
		t.Errorf("final time: serial %v parallel %v", serialEnd, parEnd)
	}
	if !reflect.DeepEqual(sa.log, pa.log) {
		t.Errorf("node a diverged:\nserial   %v\nparallel %v", sa.log, pa.log)
	}
	if !reflect.DeepEqual(sb.log, pb.log) {
		t.Errorf("node b diverged:\nserial   %v\nparallel %v", sb.log, pb.log)
	}
	if len(pa.log) == 0 || len(pb.log) == 0 {
		t.Fatal("no traffic simulated")
	}
}

// TestGroupRunUntil pins the serial RunUntil contract on a Group: events at
// the deadline run, later events stay queued, and every kernel's clock ends
// exactly at the deadline.
func TestGroupRunUntil(t *testing.T) {
	ka, kb := NewKernel(), NewKernel()
	g := NewGroup([]*Kernel{ka, kb})
	g.Mailbox(ka, kb, 1000)
	defer g.Close()

	// One log per kernel: each is appended only from its own shard
	// goroutine, so the run is race-free by construction.
	var firedA, firedB []Time
	ka.Post(5000, func() { firedA = append(firedA, ka.Now()) })
	kb.Post(5000, func() { firedB = append(firedB, kb.Now()) })
	kb.Post(5001, func() { firedB = append(firedB, kb.Now()) })

	if got := g.RunUntil(5000); got != 5000 {
		t.Fatalf("RunUntil returned %v, want 5000", got)
	}
	if len(firedA)+len(firedB) != 2 {
		t.Fatalf("fired %d events by deadline, want 2 (got %v %v)", len(firedA)+len(firedB), firedA, firedB)
	}
	if ka.Now() != 5000 || kb.Now() != 5000 {
		t.Errorf("clocks at %v/%v, want 5000/5000", ka.Now(), kb.Now())
	}
	if g.RunUntil(6000); len(firedB) != 2 {
		t.Errorf("event beyond first deadline lost: fired %v", firedB)
	}
}

// TestGroupIdleJump pins that a long idle stretch costs one barrier, not
// one barrier per window: with a tiny lookahead and events 1 ms apart the
// run must still terminate quickly because each window opens at the next
// queued event.
func TestGroupIdleJump(t *testing.T) {
	ka, kb := NewKernel(), NewKernel()
	g := NewGroup([]*Kernel{ka, kb})
	g.Mailbox(ka, kb, 10) // 10 ns lookahead
	defer g.Close()

	n := 0
	for i := Time(1); i <= 50; i++ {
		ka.Post(i*Millisecond, func() { n++ })
	}
	g.Run()
	if n != 50 {
		t.Fatalf("dispatched %d, want 50", n)
	}
}

// TestMailboxZeroLookaheadPanics: zero-delay links cannot cross partitions.
func TestMailboxZeroLookaheadPanics(t *testing.T) {
	ka, kb := NewKernel(), NewKernel()
	g := NewGroup([]*Kernel{ka, kb})
	defer func() {
		if recover() == nil {
			t.Fatal("Mailbox(lookahead=0) did not panic")
		}
	}()
	g.Mailbox(ka, kb, 0)
}

// TestPostBoundaryPastPanics: a boundary event landing in the receiving
// kernel's past is a lookahead violation and must fail loudly.
func TestPostBoundaryPastPanics(t *testing.T) {
	k := NewKernel()
	k.Post(100, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("PostBoundary in the past did not panic")
		}
	}()
	k.PostBoundary(50, 0, 1, 0, func(any) {}, nil)
}

// TestBoundaryKeyOrdering pins the dispatch-key tie-break: at equal arrival
// times, earlier post time wins; at equal post times, the lower lane wins;
// within one lane, the sender's sequence order wins.
func TestBoundaryKeyOrdering(t *testing.T) {
	k := NewKernel()
	var order []string
	note := func(s string) func(any) { return func(any) { order = append(order, s) } }

	k.PostBoundary(1000, 500, 2, 0, note("pt500-lane2"), nil)
	k.PostBoundary(1000, 400, 3, 7, note("pt400-lane3"), nil)
	k.PostBoundary(1000, 500, 1, 9, note("pt500-lane1-seq9"), nil)
	k.PostBoundary(1000, 500, 1, 3, note("pt500-lane1-seq3"), nil)
	k.Run()

	want := []string{"pt400-lane3", "pt500-lane1-seq3", "pt500-lane1-seq9", "pt500-lane2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestSerialKeyUnchanged pins that on a serial kernel the extended key
// collapses to (at, seq): interleaved At/Post calls for the same instant
// dispatch in scheduling order, exactly as before the pt/lane fields.
func TestSerialKeyUnchanged(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		if i%2 == 0 {
			k.Post(1000, func() { order = append(order, i) })
		} else {
			k.At(1000, func() { order = append(order, i) })
		}
	}
	k.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("same-instant dispatch order %v, want schedule order", order)
	}
}

// TestRandSplitStreams enforces the partition-independence contract from
// the Rand doc comment: streams seeded independently draw identical
// sequences regardless of how other streams' draws interleave with theirs —
// so a node's RNG sequence is the same whether its partition runs alone
// (serial projection) or concurrently with others.
func TestRandSplitStreams(t *testing.T) {
	draw := func(interleave bool) []uint64 {
		a, b := NewRand(42), NewRand(43)
		var seq []uint64
		for i := 0; i < 256; i++ {
			if interleave {
				for j := 0; j < i%5; j++ {
					b.Uint64() // another partition draining its own stream
				}
			}
			seq = append(seq, a.Uint64())
		}
		return seq
	}
	if !reflect.DeepEqual(draw(false), draw(true)) {
		t.Fatal("streams are not independent: interleaved draws perturbed the sequence")
	}

	// The footgun the rule prevents: one SHARED stream drawn by two nodes
	// is order-sensitive, hence not safe across partitions.
	shared := NewRand(42)
	solo := NewRand(42)
	shared.Uint64() // "other node" draw
	if shared.Uint64() == solo.Uint64() {
		t.Fatal("shared stream unexpectedly order-insensitive; doc rationale is stale")
	}
}
