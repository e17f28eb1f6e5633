package core

import (
	"fmt"
	"math"
)

// Partitioning for sharded (conservative-parallel) builds. A plan of one
// partition is the serial build.
//
// The topology graph is cut along fiber links only: every node — an
// endpoint with its NIC, or a switch — lives wholly inside one partition,
// and every cut link must have a positive propagation delay, because that
// delay is the lookahead that lets the partitions advance in parallel
// without ever violating causality. Two kinds of links can never be cut:
//
//   - zero-delay links (no lookahead to exploit: the two ends are causally
//     simultaneous), and
//   - framed (SONET) links, whose tx/rx machinery for both directions is
//     built as one sonetlink world on one kernel.
//
// The default clustering follows the paper's own decomposition: each
// endpoint+NIC (with its access-link send side) is one unit, the switching
// fabric is another. Units joined by an uncuttable link are merged
// (union-find), the unit list is ordered deterministically — endpoints in
// spec order, then the switch cluster — and contiguous runs of units are
// assigned to shards. An explicit NetworkSpec.Partitions overrides all of
// this with a caller-chosen node grouping, validated against the same
// cut rules.

// partitionPlan maps every node to its shard.
type partitionPlan struct {
	of     map[string]int // node name → shard index; nil maps all to 0
	shards int
}

// cut reports whether link ends a and b land in different shards.
func (p *partitionPlan) cut(a, b string) bool { return p.of[a] != p.of[b] }

// uncuttable reports whether a link spec must stay inside one partition,
// with the reason.
func uncuttable(ls LinkSpec) (string, bool) {
	if ls.Framed {
		return "framed (SONET) links live on one kernel", true
	}
	if ls.Delay == 0 && ls.DistanceKm == 0 {
		return "zero propagation delay gives no lookahead", true
	}
	return "", false
}

// planPartitions computes the node→shard assignment of a build: one
// partition (every node in shard 0) unless the spec asks for Shards > 1 or
// explicit Partitions. Node-name validity is checked here only as far as
// partitioning needs; the main build loop still performs its full
// validation afterwards.
func planPartitions(spec NetworkSpec) (*partitionPlan, error) {
	var p *partitionPlan
	var err error
	switch {
	case len(spec.Partitions) > 0:
		p, err = planExplicit(spec)
	case spec.Shards > 1:
		p, err = planDefault(spec)
	default:
		p = &partitionPlan{shards: 1}
	}
	if err != nil {
		return nil, err
	}
	if p.shards > maxPartitions {
		return nil, fmt.Errorf("core: the plan has %d partitions, more than the %d a build can hold", p.shards, maxPartitions)
	}
	return p, nil
}

// maxPartitions is the most partitions a build may have. A partition's rank
// is its kernel's lane, which sim keeps in 16 bits of every event.
const maxPartitions = math.MaxInt16 + 1

// planExplicit validates and applies a caller-supplied node grouping.
func planExplicit(spec NetworkSpec) (*partitionPlan, error) {
	p := &partitionPlan{of: make(map[string]int), shards: len(spec.Partitions)}
	for i, part := range spec.Partitions {
		if len(part) == 0 {
			return nil, fmt.Errorf("core: Partitions[%d] is empty", i)
		}
		for _, node := range part {
			if _, dup := p.of[node]; dup {
				return nil, fmt.Errorf("core: node %q in more than one partition", node)
			}
			p.of[node] = i
		}
	}
	covered := 0
	for _, es := range spec.Endpoints {
		if _, ok := p.of[es.Name]; !ok {
			return nil, fmt.Errorf("core: endpoint %q missing from Partitions", es.Name)
		}
		covered++
	}
	for _, ss := range spec.Switches {
		if _, ok := p.of[ss.Name]; !ok {
			return nil, fmt.Errorf("core: switch %q missing from Partitions", ss.Name)
		}
		covered++
	}
	if covered != len(p.of) {
		return nil, fmt.Errorf("core: Partitions name %d unknown node(s)", len(p.of)-covered)
	}
	for _, ls := range spec.Links {
		if !p.cut(ls.A.Node, ls.B.Node) {
			continue
		}
		if why, bad := uncuttable(ls); bad {
			return nil, fmt.Errorf("core: link %q cannot cross partitions: %s", ls.Name, why)
		}
	}
	return p, nil
}

// planDefault clusters the topology along its natural seams: one unit per
// endpoint plus one unit holding every switch, merged across uncuttable
// links, then dealt to min(Shards, units) shards in contiguous runs.
func planDefault(spec NetworkSpec) (*partitionPlan, error) {
	// Union-find over node names. All switches start merged: inter-switch
	// fabric traffic is the densest coupling, and splitting it is what the
	// explicit Partitions override is for.
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, es := range spec.Endpoints {
		parent[es.Name] = es.Name
	}
	firstSwitch := ""
	for _, ss := range spec.Switches {
		parent[ss.Name] = ss.Name
		if firstSwitch == "" {
			firstSwitch = ss.Name
		} else {
			union(ss.Name, firstSwitch)
		}
	}
	for _, ls := range spec.Links {
		if _, bad := uncuttable(ls); bad {
			if _, okA := parent[ls.A.Node]; !okA {
				return nil, fmt.Errorf("core: link %q references unknown node %q", ls.Name, ls.A.Node)
			}
			if _, okB := parent[ls.B.Node]; !okB {
				return nil, fmt.Errorf("core: link %q references unknown node %q", ls.Name, ls.B.Node)
			}
			union(ls.A.Node, ls.B.Node)
		}
	}

	// Deterministic unit order: first appearance, endpoints before the
	// switch cluster (endpoint units are the parallel workload; the switch
	// cluster goes last so it lands in its own shard when counts allow).
	unitIdx := make(map[string]int)
	var order []string
	addUnit := func(node string) {
		root := find(node)
		if _, ok := unitIdx[root]; !ok {
			unitIdx[root] = len(order)
			order = append(order, root)
		}
	}
	for _, es := range spec.Endpoints {
		addUnit(es.Name)
	}
	for _, ss := range spec.Switches {
		addUnit(ss.Name)
	}

	shards := spec.Shards
	if shards > len(order) {
		shards = len(order)
	}
	if shards < 1 {
		shards = 1
	}
	p := &partitionPlan{of: make(map[string]int, len(parent)), shards: shards}
	// Contiguous runs: unit u → shard u*shards/len(order) keeps runs within
	// one of each other in size and preserves spec-order adjacency.
	for node := range parent {
		u := unitIdx[find(node)]
		p.of[node] = u * shards / len(order)
	}
	return p, nil
}
