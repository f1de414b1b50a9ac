package distmat

import (
	"fmt"
	"math"
	"testing"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/tcpmpi"
)

// handPlan builds the hand-designed 4-rank halo used to pin exact meter
// attribution: every rank owns 2 values and sends its local 0 to every other
// rank, receiving one value from each peer into halo slots ordered by source
// rank. Under the flat schedule that is 3 messages of 8 bytes per rank; under
// a 2-node × 2-rank topology the node-aware protocol must collapse the 8
// node-crossing messages into 2 combined leader messages carrying the same
// 64 bytes.
func handPlan(rank int, topo simmpi.Topology) *HaloPlan {
	const size = 4
	send := make([][]int, size)
	recv := make([][]int, size)
	slot := 0
	for p := 0; p < size; p++ {
		if p == rank {
			continue
		}
		send[p] = []int{0}
		recv[p] = []int{slot}
		slot++
	}
	need := make([]int64, size*size)
	for d := 0; d < size; d++ {
		for s := 0; s < size; s++ {
			if d != s {
				need[d*size+s] = 1
			}
		}
	}
	return NewHaloPlanFromScheduleTopo(send, recv, need, rank, topo)
}

// checkHandHalo verifies one completed hand-plan exchange: halo slot i of
// rank r (sources ascending, skipping r) must hold the sender's local 0.
func checkHandHalo(rank int, xExt []float64) error {
	slot := 0
	for src := 0; src < 4; src++ {
		if src == rank {
			continue
		}
		if got, want := xExt[2+slot], float64(100*src); got != want {
			return fmt.Errorf("rank %d halo slot %d: got %v, want %v", rank, slot, got, want)
		}
		slot++
	}
	return nil
}

// exchangeModes runs the hand-built exchange once per mode (flat schedule,
// then node-aware) inside one world, metering each mode in isolation, and
// returns the two world snapshots. Every rank also cross-checks its
// ExchangeCounts prediction against nothing less than the real meter: the
// sum over ranks of the predicted per-level counts must equal the metered
// world totals exactly.
func exchangeModes(topo simmpi.Topology, snaps *[2]simmpi.Snapshot, counts *[2][4][4]int64) func(c *simmpi.Comm) error {
	return func(c *simmpi.Comm) error {
		for mode, aware := range []bool{false, true} {
			p := handPlan(c.Rank(), topo)
			p.SetNodeAware(aware)
			if p.napActive() != aware {
				return fmt.Errorf("rank %d: node-aware routing %v after SetNodeAware(%v)", c.Rank(), p.napActive(), aware)
			}
			xExt := []float64{float64(100 * c.Rank()), float64(100*c.Rank() + 1), 0, 0, 0}
			c.Barrier()
			if c.Rank() == 0 {
				c.Meter().Reset()
			}
			c.Barrier()
			p.Exchange(c, xExt, 2)
			if err := checkHandHalo(c.Rank(), xExt); err != nil {
				return err
			}
			im, ib, em, eb := p.ExchangeCounts(1)
			counts[mode][c.Rank()] = [4]int64{im, ib, em, eb}
			c.Barrier()
			if c.Rank() == 0 {
				snaps[mode] = c.Meter().Snapshot()
			}
		}
		return nil
	}
}

// checkHandAttribution pins the exact hand-computed split for both modes and
// the structural node-aware win: inter-node messages collapse from one per
// cross-node rank pair (8) to one per node pair and direction (2), inter
// bytes unchanged, and ExchangeCounts agrees with the meter rank by rank.
func checkHandAttribution(t *testing.T, snaps [2]simmpi.Snapshot, counts [2][4][4]int64) {
	t.Helper()
	flat, nap := snaps[0], snaps[1]
	if flat.IntraP2PMessages != 4 || flat.IntraP2PBytes != 32 ||
		flat.InterP2PMessages != 8 || flat.InterP2PBytes != 64 {
		t.Fatalf("flat split: %+v, want intra 4/32 inter 8/64", flat)
	}
	if nap.IntraP2PMessages != 8 || nap.IntraP2PBytes != 96 ||
		nap.InterP2PMessages != 2 || nap.InterP2PBytes != 64 {
		t.Fatalf("node-aware split: %+v, want intra 8/96 inter 2/64", nap)
	}
	if nap.InterP2PBytes != flat.InterP2PBytes {
		t.Fatalf("aggregation changed inter-node bytes: flat %d, node-aware %d",
			flat.InterP2PBytes, nap.InterP2PBytes)
	}
	if nap.InterP2PMessages >= flat.InterP2PMessages {
		t.Fatalf("aggregation did not reduce inter-node messages: flat %d, node-aware %d",
			flat.InterP2PMessages, nap.InterP2PMessages)
	}
	for mode, snap := range snaps {
		var im, ib, em, eb int64
		for r := 0; r < 4; r++ {
			im += counts[mode][r][0]
			ib += counts[mode][r][1]
			em += counts[mode][r][2]
			eb += counts[mode][r][3]
		}
		if im != snap.IntraP2PMessages || ib != snap.IntraP2PBytes ||
			em != snap.InterP2PMessages || eb != snap.InterP2PBytes {
			t.Fatalf("mode %d: ExchangeCounts sum (%d/%d intra, %d/%d inter) disagrees with meter %+v",
				mode, im, ib, em, eb, snap)
		}
	}
}

func TestNodeAwareHandBuiltExchangeSim(t *testing.T) {
	topo := simmpi.Topology{Nodes: 2, RanksPerNode: 2}
	var snaps [2]simmpi.Snapshot
	var counts [2][4][4]int64
	if _, err := simmpi.RunTopo(4, testTimeout, topo, exchangeModes(topo, &snaps, &counts)); err != nil {
		t.Fatal(err)
	}
	checkHandAttribution(t, snaps, counts)
}

func TestNodeAwareHandBuiltExchangeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket transport in -short mode")
	}
	topo := simmpi.Topology{Nodes: 2, RanksPerNode: 2}
	var snaps [2]simmpi.Snapshot
	var counts [2][4][4]int64
	// RunLocalTopo snapshots would only see the merged meter after the run;
	// rank 0's live Meter() inside the fn is its own rank-row only. The sim
	// world's shared meter is what the in-run snapshots rely on, so on the
	// socket backend mode isolation comes from summing rank snapshots instead.
	var rankSnaps [2][4]simmpi.Snapshot
	fn := func(c *simmpi.Comm) error {
		for mode, aware := range []bool{false, true} {
			p := handPlan(c.Rank(), topo)
			p.SetNodeAware(aware)
			xExt := []float64{float64(100 * c.Rank()), float64(100*c.Rank() + 1), 0, 0, 0}
			c.Barrier()
			before := c.Meter().RankSnapshot(c.Rank())
			p.Exchange(c, xExt, 2)
			if err := checkHandHalo(c.Rank(), xExt); err != nil {
				return err
			}
			im, ib, em, eb := p.ExchangeCounts(1)
			counts[mode][c.Rank()] = [4]int64{im, ib, em, eb}
			rankSnaps[mode][c.Rank()] = c.Meter().RankSnapshot(c.Rank()).Sub(before)
			c.Barrier()
		}
		return nil
	}
	if _, err := tcpmpi.RunLocalTopo(4, tcpmpi.Config{Timeout: testTimeout}, topo, fn); err != nil {
		t.Fatal(err)
	}
	for mode := range snaps {
		var s simmpi.Snapshot
		for r := 0; r < 4; r++ {
			rs := rankSnaps[mode][r]
			s.IntraP2PMessages += rs.IntraP2PMessages
			s.IntraP2PBytes += rs.IntraP2PBytes
			s.InterP2PMessages += rs.InterP2PMessages
			s.InterP2PBytes += rs.InterP2PBytes
		}
		snaps[mode] = s
	}
	checkHandAttribution(t, snaps, counts)
}

// The async (StartExchange/Complete) and k-wide batched paths must deliver
// the same values through the same aggregated envelopes: the handle defers
// the node-aware receives to Complete, and a k-wide batch still costs one
// message per envelope, carrying k columns.
func TestNodeAwareAsyncAndBatchedExchange(t *testing.T) {
	topo := simmpi.Topology{Nodes: 2, RanksPerNode: 2}
	const k = 3
	var asyncSnap, batchSnap simmpi.Snapshot
	var batchCounts [4][4]int64
	_, err := simmpi.RunTopo(4, testTimeout, topo, func(c *simmpi.Comm) error {
		p := handPlan(c.Rank(), topo)
		if !p.napActive() {
			return fmt.Errorf("rank %d: schedule-topo plan not node-aware by default", c.Rank())
		}

		// Async single-column exchange.
		xExt := []float64{float64(100 * c.Rank()), float64(100*c.Rank() + 1), 0, 0, 0}
		c.Barrier()
		if c.Rank() == 0 {
			c.Meter().Reset()
		}
		c.Barrier()
		h := p.StartExchange(c, xExt)
		h.Complete(c, xExt, 2)
		if err := checkHandHalo(c.Rank(), xExt); err != nil {
			return fmt.Errorf("async: %w", err)
		}
		c.Barrier()
		if c.Rank() == 0 {
			asyncSnap = c.Meter().Snapshot()
		}

		// k-wide batched exchange: column j of local value i holds
		// 100*rank + i + 1000*j, so halo slot for source s, column j must
		// come back as 100*s + 1000*j.
		ext := make([]float64, 5*k)
		for i := 0; i < 2; i++ {
			for j := 0; j < k; j++ {
				ext[i*k+j] = float64(100*c.Rank() + i + 1000*j)
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			c.Meter().Reset()
		}
		c.Barrier()
		p.ExchangeBatch(c, ext, 2, k)
		slot := 0
		for src := 0; src < 4; src++ {
			if src == c.Rank() {
				continue
			}
			for j := 0; j < k; j++ {
				if got, want := ext[(2+slot)*k+j], float64(100*src+1000*j); got != want {
					return fmt.Errorf("rank %d batch halo slot %d col %d: got %v, want %v",
						c.Rank(), slot, j, got, want)
				}
			}
			slot++
		}
		im, ib, em, eb := p.ExchangeCounts(k)
		batchCounts[c.Rank()] = [4]int64{im, ib, em, eb}
		c.Barrier()
		if c.Rank() == 0 {
			batchSnap = c.Meter().Snapshot()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Async metering is identical to the blocking exchange (charged at post
	// time): the hand-computed node-aware split.
	if asyncSnap.IntraP2PMessages != 8 || asyncSnap.IntraP2PBytes != 96 ||
		asyncSnap.InterP2PMessages != 2 || asyncSnap.InterP2PBytes != 64 {
		t.Fatalf("async split: %+v, want intra 8/96 inter 2/64", asyncSnap)
	}
	// The batch moves k times the bytes through exactly the same number of
	// messages.
	if batchSnap.IntraP2PMessages != 8 || batchSnap.IntraP2PBytes != 96*k ||
		batchSnap.InterP2PMessages != 2 || batchSnap.InterP2PBytes != 64*k {
		t.Fatalf("batch split: %+v, want intra 8/%d inter 2/%d", batchSnap, 96*k, 64*k)
	}
	var im, ib, em, eb int64
	for r := 0; r < 4; r++ {
		im += batchCounts[r][0]
		ib += batchCounts[r][1]
		em += batchCounts[r][2]
		eb += batchCounts[r][3]
	}
	if im != batchSnap.IntraP2PMessages || ib != batchSnap.IntraP2PBytes ||
		em != batchSnap.InterP2PMessages || eb != batchSnap.InterP2PBytes {
		t.Fatalf("ExchangeCounts(%d) sum (%d/%d intra, %d/%d inter) disagrees with meter %+v",
			k, im, ib, em, eb, batchSnap)
	}
}

// A distributed SpMV whose halo flows through the node-aware protocol must
// produce values bit-identical to the flat schedule (same float64 payloads in
// the same slots, only the envelope differs) and match the serial product to
// rounding.
func TestNodeAwareSpMVBitIdenticalToFlat(t *testing.T) {
	a := grid2d(8, 8)
	n := a.Rows
	const nranks = 4
	topo := simmpi.Topology{Nodes: 2, RanksPerNode: 2}
	l := NewUniformLayout(n, nranks)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(3*i + 1))
	}
	want := make([]float64, n)
	a.MulVec(x, want)

	gotNap := make([]float64, n)
	gotFlat := make([]float64, n)
	_, err := simmpi.RunTopo(nranks, testTimeout, topo, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		if !op.Plan.napActive() {
			return fmt.Errorf("rank %d: plan built under a topology Comm not node-aware", c.Rank())
		}
		scratch := NewDistVec(op.LZ)
		y := make([]float64, hi-lo)
		op.MulVec(c, x[lo:hi], y, scratch, nil)
		copy(gotNap[lo:hi], y)

		op.Plan.SetNodeAware(false)
		c.Barrier()
		op.MulVec(c, x[lo:hi], y, scratch, nil)
		copy(gotFlat[lo:hi], y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if gotNap[i] != gotFlat[i] {
			t.Fatalf("y[%d]: node-aware %v differs from flat %v", i, gotNap[i], gotFlat[i])
		}
		if math.Abs(gotNap[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("y[%d] = %v, want %v", i, gotNap[i], want[i])
		}
	}
}

// Enabling node awareness without the data to derive the relay schedule must
// fail loudly — a silent flat fallback would fake the metered claims.
func TestSetNodeAwareWithoutTopologyPanics(t *testing.T) {
	p := NewHaloPlanFromSchedule(make([][]int, 2), make([][]int, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("SetNodeAware(true) without a topology did not panic")
		}
	}()
	p.SetNodeAware(true)
}
