package simmpi_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/tcpmpi"
)

func TestResolveTopology(t *testing.T) {
	cases := []struct {
		size, nodes, rpn int
		want             simmpi.Topology
	}{
		{4, 0, 0, simmpi.Topology{Nodes: 4, RanksPerNode: 1}}, // both zero: flat
		{4, 2, 0, simmpi.Topology{Nodes: 2, RanksPerNode: 2}}, // derive ranks/node
		{4, 0, 2, simmpi.Topology{Nodes: 2, RanksPerNode: 2}}, // derive nodes
		{8, 2, 4, simmpi.Topology{Nodes: 2, RanksPerNode: 4}}, // both given
		{6, 6, 1, simmpi.Topology{Nodes: 6, RanksPerNode: 1}}, // explicit flat
	}
	for _, c := range cases {
		got, err := simmpi.ResolveTopology(c.size, c.nodes, c.rpn)
		if err != nil {
			t.Fatalf("ResolveTopology(%d,%d,%d): %v", c.size, c.nodes, c.rpn, err)
		}
		if got != c.want {
			t.Fatalf("ResolveTopology(%d,%d,%d) = %+v, want %+v", c.size, c.nodes, c.rpn, got, c.want)
		}
	}
}

func TestResolveTopologyErrors(t *testing.T) {
	cases := []struct {
		size, nodes, rpn int
		wantSub          string
	}{
		{4, 0, 3, "not divisible"}, // 4 ranks into 3-rank nodes
		{4, 3, 0, "not divisible"}, // 4 ranks across 3 nodes
		{4, 3, 2, "world has"},     // 3×2 covers 6, world has 4
		{0, 2, 0, "world size"},    // no ranks at all
		{4, -1, 0, "negative"},     // negative request
		{4, 0, -2, "negative"},     //
	}
	for _, c := range cases {
		_, err := simmpi.ResolveTopology(c.size, c.nodes, c.rpn)
		if err == nil {
			t.Fatalf("ResolveTopology(%d,%d,%d) accepted", c.size, c.nodes, c.rpn)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("ResolveTopology(%d,%d,%d) error %q does not mention %q",
				c.size, c.nodes, c.rpn, err, c.wantSub)
		}
	}
}

func TestTopologyHelpers(t *testing.T) {
	topo := simmpi.Topology{Nodes: 2, RanksPerNode: 3}
	if topo.Flat() {
		t.Fatal("2x3 topology reported flat")
	}
	for r, wantNode := range []int{0, 0, 0, 1, 1, 1} {
		if got := topo.NodeOf(r); got != wantNode {
			t.Fatalf("NodeOf(%d) = %d, want %d", r, got, wantNode)
		}
	}
	if !topo.SameNode(0, 2) || topo.SameNode(2, 3) {
		t.Fatal("SameNode wrong across the node boundary")
	}
	if topo.Leader(0) != 0 || topo.Leader(1) != 3 {
		t.Fatalf("leaders = %d, %d, want 0, 3", topo.Leader(0), topo.Leader(1))
	}
	if err := topo.Validate(6); err != nil {
		t.Fatalf("Validate(6): %v", err)
	}
	if err := topo.Validate(8); err == nil {
		t.Fatal("Validate(8) accepted a 6-rank topology")
	}

	// The zero topology and FlatTopology both behave one-rank-per-node.
	var zero simmpi.Topology
	if !zero.Flat() || !simmpi.FlatTopology(5).Flat() {
		t.Fatal("flat topologies not reported flat")
	}
	if zero.NodeOf(3) != 3 || zero.Leader(3) != 3 || zero.SameNode(1, 2) {
		t.Fatal("zero topology must treat every rank as its own node")
	}
	if err := zero.Validate(17); err != nil {
		t.Fatalf("zero topology Validate: %v", err)
	}
}

func TestMeterMergeTopologyMismatchPanics(t *testing.T) {
	a := simmpi.NewMeterTopo(4, simmpi.Topology{Nodes: 2, RanksPerNode: 2})
	b := simmpi.NewMeterTopo(4, simmpi.Topology{})
	defer func() {
		if recover() == nil {
			t.Fatal("merging meters with different topologies did not panic")
		}
	}()
	a.Merge(b)
}

// allToAll has every rank send its 2-float payload to every other rank and
// receive the 3 payloads it is owed — the hand-built exchange whose exact
// intra/inter meter attribution the tests below pin on both transports.
func allToAll(c *simmpi.Comm) error {
	const tag = 7
	payload := []float64{float64(c.Rank()), float64(c.Rank())}
	for dst := 0; dst < c.Size(); dst++ {
		if dst != c.Rank() {
			c.SendFloats(dst, tag, payload)
		}
	}
	for src := 0; src < c.Size(); src++ {
		if src == c.Rank() {
			continue
		}
		vals := c.RecvFloats(src, tag)
		if len(vals) != 2 || vals[0] != float64(src) {
			return fmt.Errorf("rank %d: bad payload from %d: %v", c.Rank(), src, vals)
		}
	}
	return nil
}

// checkAllToAllAttribution pins the exact split of the 4-rank all-to-all on a
// 2-node × 2-rank topology. Each rank sends three 16-byte messages: one to
// its node sibling (intra) and two across the node boundary (inter), so the
// world totals must be intra 4 msgs / 64 B and inter 8 msgs / 128 B, with
// the historical totals equal to their sum.
func checkAllToAllAttribution(t *testing.T, m *simmpi.Meter) {
	t.Helper()
	s := m.Snapshot()
	if s.P2PMessages != 12 || s.P2PBytes != 192 {
		t.Fatalf("totals: %d msgs / %d bytes, want 12 / 192", s.P2PMessages, s.P2PBytes)
	}
	if s.IntraP2PMessages != 4 || s.IntraP2PBytes != 64 {
		t.Fatalf("intra: %d msgs / %d bytes, want 4 / 64", s.IntraP2PMessages, s.IntraP2PBytes)
	}
	if s.InterP2PMessages != 8 || s.InterP2PBytes != 128 {
		t.Fatalf("inter: %d msgs / %d bytes, want 8 / 128", s.InterP2PMessages, s.InterP2PBytes)
	}
	if s.IntraP2PBytes+s.InterP2PBytes != s.P2PBytes ||
		s.IntraP2PMessages+s.InterP2PMessages != s.P2PMessages {
		t.Fatalf("split does not sum to the totals: %+v", s)
	}
	for r := 0; r < 4; r++ {
		rs := m.RankSnapshot(r)
		if rs.IntraP2PMessages != 1 || rs.IntraP2PBytes != 16 ||
			rs.InterP2PMessages != 2 || rs.InterP2PBytes != 32 {
			t.Fatalf("rank %d split: %+v, want intra 1/16 inter 2/32", r, rs)
		}
	}
}

func TestMeterAttributionSim(t *testing.T) {
	topo := simmpi.Topology{Nodes: 2, RanksPerNode: 2}
	w, err := simmpi.RunTopo(4, 10*time.Second, topo, allToAll)
	if err != nil {
		t.Fatal(err)
	}
	checkAllToAllAttribution(t, w.Meter())
}

func TestMeterAttributionTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket transport in -short mode")
	}
	topo := simmpi.Topology{Nodes: 2, RanksPerNode: 2}
	m, err := tcpmpi.RunLocalTopo(4, tcpmpi.Config{Timeout: 10 * time.Second}, topo, allToAll)
	if err != nil {
		t.Fatal(err)
	}
	checkAllToAllAttribution(t, m)
}

// Under a flat (zero) topology nothing can be intra-node: the new split
// fields must read all traffic as inter while the historical totals are
// untouched — the backward-compatibility contract every pre-topology caller
// relies on.
func TestMeterFlatTopologyAllInter(t *testing.T) {
	w, err := simmpi.Run(4, 10*time.Second, allToAll)
	if err != nil {
		t.Fatal(err)
	}
	s := w.Meter().Snapshot()
	if s.P2PMessages != 12 || s.P2PBytes != 192 {
		t.Fatalf("totals: %d msgs / %d bytes, want 12 / 192", s.P2PMessages, s.P2PBytes)
	}
	if s.IntraP2PMessages != 0 || s.IntraP2PBytes != 0 {
		t.Fatalf("flat world recorded intra-node traffic: %+v", s)
	}
	if s.InterP2PMessages != 12 || s.InterP2PBytes != 192 {
		t.Fatalf("flat world inter != totals: %+v", s)
	}
}

func TestRunTopoRejectsInvalidTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunTopo accepted a topology not covering the world")
		}
	}()
	simmpi.RunTopo(4, time.Second, simmpi.Topology{Nodes: 3, RanksPerNode: 2}, func(c *simmpi.Comm) error { return nil })
}
