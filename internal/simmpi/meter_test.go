package simmpi_test

import (
	"fmt"
	"testing"
	"time"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/tcpmpi"
)

// allToAll has every rank send its 2-float payload to every other rank and
// receive the 3 payloads it is owed — the hand-built exchange whose exact
// meter attribution the tests below pin on both transports.
func allToAll(c *simmpi.Comm) error {
	const tag = 7
	payload := []float64{float64(c.Rank()), float64(c.Rank())}
	for dst := 0; dst < c.Size(); dst++ {
		if dst != c.Rank() {
			simmpi.Send(c, dst, tag, payload)
		}
	}
	for src := 0; src < c.Size(); src++ {
		if src == c.Rank() {
			continue
		}
		vals := simmpi.Recv[float64](c, src, tag)
		if len(vals) != 2 || vals[0] != float64(src) {
			return fmt.Errorf("rank %d: bad payload from %d: %v", c.Rank(), src, vals)
		}
	}
	return nil
}

// checkAllToAllAttribution pins the meter of the 4-rank all-to-all: each
// rank sends three 16-byte messages, one to each peer, so the world totals
// are 12 messages / 192 bytes, every rank's snapshot holds its own 3 / 48,
// and every ordered pair of distinct ranks carries 16 bytes.
func checkAllToAllAttribution(t *testing.T, m *simmpi.Meter) {
	t.Helper()
	s := m.Snapshot()
	if s.P2PMessages != 12 || s.P2PBytes != 192 {
		t.Fatalf("totals: %d msgs / %d bytes, want 12 / 192", s.P2PMessages, s.P2PBytes)
	}
	for r := 0; r < 4; r++ {
		if rs := m.RankSnapshot(r); rs.P2PMessages != 3 || rs.P2PBytes != 48 {
			t.Fatalf("rank %d: %+v, want 3 msgs / 48 bytes", r, rs)
		}
		for d := 0; d < 4; d++ {
			want := int64(16)
			if d == r {
				want = 0
			}
			if got := m.PairBytes(r, d); got != want {
				t.Fatalf("pair %d→%d: %d bytes, want %d", r, d, got, want)
			}
		}
	}
}

func TestMeterAttributionSim(t *testing.T) {
	w, err := simmpi.Run(4, 10*time.Second, allToAll)
	if err != nil {
		t.Fatal(err)
	}
	checkAllToAllAttribution(t, w.Meter())
}

// The socket transport's per-rank meters, merged, read what the in-process
// world's one meter reads.
func TestMeterAttributionTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket transport in -short mode")
	}
	m, err := tcpmpi.RunLocal(4, tcpmpi.Config{Timeout: 10 * time.Second}, allToAll)
	if err != nil {
		t.Fatal(err)
	}
	checkAllToAllAttribution(t, m)
}

// A flat world has one tier of point-to-point traffic: every message of the
// all-to-all counts once into the world total, which is the sum of the
// per-rank snapshots and of the pair matrix, and none of it is booked as a
// collective. (/metrics exports that one total as inter_node_messages_total.)
func TestMeterFlatTopologyAllInter(t *testing.T) {
	w, err := simmpi.Run(4, 10*time.Second, allToAll)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Meter()
	s := m.Snapshot()
	if s.P2PMessages != 12 || s.P2PBytes != 192 {
		t.Fatalf("totals: %d msgs / %d bytes, want 12 / 192", s.P2PMessages, s.P2PBytes)
	}
	var ranks simmpi.Snapshot
	var pairs int64
	for r := 0; r < 4; r++ {
		rs := m.RankSnapshot(r)
		ranks.P2PMessages += rs.P2PMessages
		ranks.P2PBytes += rs.P2PBytes
		for d := 0; d < 4; d++ {
			pairs += m.PairBytes(r, d)
		}
	}
	if ranks.P2PMessages != s.P2PMessages || ranks.P2PBytes != s.P2PBytes || pairs != s.P2PBytes {
		t.Fatalf("world total %d/%d is not the rank sum %d/%d and the pair sum %d bytes",
			s.P2PMessages, s.P2PBytes, ranks.P2PMessages, ranks.P2PBytes, pairs)
	}
	if s.CollectiveCalls != 0 || s.CollectiveBytes != 0 {
		t.Fatalf("point-to-point traffic booked as collectives: %+v", s)
	}
}
