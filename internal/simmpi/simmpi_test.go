package simmpi

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

const testTimeout = 5 * time.Second

func TestRunBasicSendRecv(t *testing.T) {
	w, err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 7, []float64{1, 2, 3})
			return nil
		}
		got := Recv[float64](c, 0, 7)
		if len(got) != 3 || got[2] != 3 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := w.Meter().PairBytes(0, 1); b != 24 {
		t.Fatalf("metered %d bytes, want 24", b)
	}
	if n := w.Meter().Snapshot().P2PMessages; n != 1 {
		t.Fatalf("metered %d messages, want 1", n)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	_, err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1, 2}
			Send(c, 1, 0, buf)
			buf[0] = 99 // must not affect the received value
			c.Barrier()
			return nil
		}
		c.Barrier()
		got := Recv[float64](c, 0, 0)
		if got[0] != 1 {
			return fmt.Errorf("payload aliased sender buffer: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvInts(t *testing.T) {
	_, err := Run(3, testTimeout, func(c *Comm) error {
		next := (c.Rank() + 1) % 3
		prev := (c.Rank() + 2) % 3
		Send(c, next, 1, []int{c.Rank() * 10})
		got := Recv[int](c, prev, 1)
		if got[0] != prev*10 {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A steady-state Send+Recv round trip of 64 values between two sim ranks
// allocates the two payload copies Send makes and nothing else, for every
// element type: the generic bodies box nothing. The world has no timeout, so
// no wait arms a timer.
func TestRoundTripAllocatesOnlyPayloadCopies(t *testing.T) {
	roundTripAllocs[float64](t, 8)
	roundTripAllocs[float32](t, 4)
	roundTripAllocs[int](t, 8)
}

func roundTripAllocs[T Elem](t *testing.T, width uint64) {
	const n, runs = 64, 200
	w := NewWorldTopo(2, 0, Topology{})
	c0, c1 := w.Comm(0), w.Comm(1)
	go func() { // echoes until an empty message comes
		for v := Recv[T](c1, 0, 0); v != nil; v = Recv[T](c1, 0, 0) {
			Send(c1, 0, 0, v)
		}
	}()
	defer Send(c0, 1, 0, []T{})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data := make([]T, n)
	roundTrip := func() {
		Send(c0, 1, 0, data)
		if got := Recv[T](c0, 1, 0); len(got) != n {
			panic(fmt.Sprint("echoed ", len(got), " values"))
		}
	}
	roundTrip()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	if allocs != 2 || bytes != 2*n*width {
		t.Errorf("%T: a round trip of %d values allocates %d times, %d B; want 2 times, %d B",
			data, n, allocs, bytes, 2*n*width)
	}
}

func TestMessageOrderPerSender(t *testing.T) {
	_, err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 50; i++ {
				Send(c, 1, i, []float64{float64(i)})
			}
			return nil
		}
		for i := 0; i < 50; i++ {
			got := Recv[float64](c, 0, i)
			if got[0] != float64(i) {
				return fmt.Errorf("message %d out of order: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	_, err := Run(4, testTimeout, func(c *Comm) error {
		got := c.AllreduceSum(float64(c.Rank()), 1)
		if got[0] != 6 || got[1] != 4 {
			return fmt.Errorf("rank %d: %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	_, err := Run(5, testTimeout, func(c *Comm) error {
		mx := c.AllreduceMax(float64(c.Rank()))
		mn := c.AllreduceMin(float64(c.Rank()))
		if mx[0] != 4 || mn[0] != 0 {
			return fmt.Errorf("max=%v min=%v", mx, mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceInt64(t *testing.T) {
	_, err := Run(3, testTimeout, func(c *Comm) error {
		s := c.AllreduceSumInt64(int64(c.Rank() + 1))
		m := c.AllreduceMaxInt64(int64(c.Rank() + 1))
		if s[0] != 6 || m[0] != 3 {
			return fmt.Errorf("sum=%v max=%v", s, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	_, err := Run(3, testTimeout, func(c *Comm) error {
		g := c.AllgatherInt64([]int64{int64(c.Rank()), int64(c.Rank() * 2)})
		want := []int64{0, 0, 1, 2, 2, 4}
		if len(g) != len(want) {
			return fmt.Errorf("len %d", len(g))
		}
		for i := range want {
			if g[i] != want[i] {
				return fmt.Errorf("g=%v", g)
			}
		}
		gi := c.AllgatherInt([]int{c.Rank()})
		if len(gi) != 3 || gi[2] != 2 {
			return fmt.Errorf("gi=%v", gi)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	_, err := Run(4, testTimeout, func(c *Comm) error {
		var in []float64
		if c.Rank() == 0 {
			in = []float64{math.Pi}
		}
		got := c.BcastFloats(0, in)
		if got[0] != math.Pi {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	// After a barrier, all pre-barrier sends must be visible.
	_, err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 0, []int{42})
		}
		c.Barrier()
		if c.Rank() == 1 {
			got := Recv[int](c, 0, 0)
			if got[0] != 42 {
				return fmt.Errorf("got %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetectedByTimeout(t *testing.T) {
	_, err := Run(2, 50*time.Millisecond, func(c *Comm) error {
		if c.Rank() == 1 {
			Recv[float64](c, 0, 0) // rank 0 never sends
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("deadlock not detected: %v", err)
	}
}

func TestCollectiveMismatchPanics(t *testing.T) {
	// Short timeout: after rank 0 detects the mismatch and panics, rank 1 is
	// left waiting for the broadcast and must time out.
	_, err := Run(2, 100*time.Millisecond, func(c *Comm) error {
		if c.Rank() == 0 {
			c.AllreduceSum(1)
		} else {
			c.AllreduceMax(1)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("collective mismatch not detected: %v", err)
	}
}

func TestTagMismatchPanics(t *testing.T) {
	_, err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 5, []float64{1})
			return nil
		}
		Recv[float64](c, 0, 6)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "tag") {
		t.Fatalf("tag mismatch not detected: %v", err)
	}
}

func TestPayloadTypeMismatchPanics(t *testing.T) {
	_, err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 0, []int{1})
			return nil
		}
		Recv[float64](c, 0, 0)
		return nil
	})
	if err == nil {
		t.Fatal("payload type mismatch not detected")
	}
}

func TestSelfSendLoopback(t *testing.T) {
	w, err := Run(1, testTimeout, func(c *Comm) error {
		sent := []float64{1, 2, 3}
		Send(c, 0, 7, sent)
		got := Recv[float64](c, 0, 7)
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			return fmt.Errorf("loopback payload = %v", got)
		}
		// Self-delivery is defined as no-copy: the receiver shares the
		// sender's backing array.
		if &got[0] != &sent[0] {
			return fmt.Errorf("loopback copied the payload")
		}
		Send(c, 0, 8, []int{4, 5})
		if ints := Recv[int](c, 0, 8); len(ints) != 2 || ints[1] != 5 {
			return fmt.Errorf("loopback ints = %v", ints)
		}
		// Posted self-sends join the same loopback queue in chain order.
		r := Isend(c, 0, 9, []float64{6})
		if got := Recv[float64](c, 0, 9); len(got) != 1 || got[0] != 6 {
			return fmt.Errorf("posted loopback payload = %v", got)
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Loopback traffic crosses no rank boundary and is not metered.
	if n := w.Meter().Snapshot().P2PMessages; n != 0 {
		t.Fatalf("self-sends metered: %d messages", n)
	}
}

func TestSelfRecvWithoutSendTimesOut(t *testing.T) {
	_, err := Run(1, 50*time.Millisecond, func(c *Comm) error {
		Recv[float64](c, 0, 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("bare self-receive not detected: %v", err)
	}
}

func TestInvalidPeerPanics(t *testing.T) {
	_, err := Run(1, testTimeout, func(c *Comm) error {
		Send(c, 3, 0, []float64{1})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "invalid peer") {
		t.Fatalf("invalid peer not detected: %v", err)
	}
}

func TestMeterNeighborSetsAndReset(t *testing.T) {
	w, err := Run(3, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 0, []float64{1})
			Send(c, 2, 0, []float64{1, 2})
		}
		c.Barrier()
		if c.Rank() != 0 {
			Recv[float64](c, 0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := w.Meter().NeighborSets()
	if len(ns[0]) != 2 || ns[0][0] != 1 || ns[0][1] != 2 || len(ns[1]) != 0 {
		t.Fatalf("neighbor sets = %v", ns)
	}
	if got := w.Meter().MaxRankP2PBytes(); got != 24 {
		t.Fatalf("MaxRankP2PBytes = %d, want 24", got)
	}
	w.Meter().Reset()
	if w.Meter().TotalP2PBytes() != 0 || w.Meter().Snapshot().P2PMessages != 0 {
		t.Fatal("Reset did not zero meter")
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size 0 accepted")
		}
	}()
	NewWorldTopo(0, 0, Topology{})
}

func TestManyRanksStress(t *testing.T) {
	// Ring exchange over 32 ranks with collectives mixed in.
	_, err := Run(32, testTimeout, func(c *Comm) error {
		n := c.Size()
		next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
		for iter := 0; iter < 10; iter++ {
			Send(c, next, iter, []float64{float64(c.Rank())})
			got := Recv[float64](c, prev, iter)
			if got[0] != float64(prev) {
				return fmt.Errorf("iter %d: got %v", iter, got)
			}
			sum := c.AllreduceSum(1)
			if sum[0] != float64(n) {
				return fmt.Errorf("allreduce = %v", sum)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherFloats(t *testing.T) {
	_, err := Run(3, testTimeout, func(c *Comm) error {
		g := c.AllgatherFloats([]float64{float64(c.Rank()) + 0.5})
		want := []float64{0.5, 1.5, 2.5}
		if len(g) != 3 {
			return fmt.Errorf("len %d", len(g))
		}
		for i := range want {
			if g[i] != want[i] {
				return fmt.Errorf("g=%v", g)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeterCollectiveCallsAndBytes(t *testing.T) {
	const ranks = 3
	w, err := Run(ranks, testTimeout, func(c *Comm) error {
		c.AllreduceSum(1, 2, 3) // 24 bytes, 1 call per rank
		c.AllreduceSum(1)       // 8 bytes, 1 call per rank
		c.Barrier()             // 0 bytes, 1 call per rank
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := w.Meter()
	for r := 0; r < ranks; r++ {
		if got := m.CollectiveCalls(r); got != 3 {
			t.Fatalf("rank %d collective calls = %d, want 3", r, got)
		}
		if got := m.CollectiveBytes(r); got != 32 {
			t.Fatalf("rank %d collective bytes = %d, want 32", r, got)
		}
	}
	if got := m.Snapshot().CollectiveCalls; got != 3*ranks {
		t.Fatalf("total collective calls = %d, want %d", got, 3*ranks)
	}
	if got := m.Snapshot().CollectiveBytes; got != 32*ranks {
		t.Fatalf("total collective bytes = %d, want %d", got, 32*ranks)
	}
}

func TestMeterBcastChargesEveryRankOneCall(t *testing.T) {
	const ranks = 4
	w, err := Run(ranks, testTimeout, func(c *Comm) error {
		c.BcastFloats(0, []float64{1, 2})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := w.Meter()
	for r := 0; r < ranks; r++ {
		if got := m.CollectiveCalls(r); got != 1 {
			t.Fatalf("rank %d bcast calls = %d, want 1", r, got)
		}
	}
	// Payload is charged to the root only.
	if m.CollectiveBytes(0) != 16 || m.CollectiveBytes(1) != 0 {
		t.Fatalf("bcast bytes = %d/%d, want 16/0", m.CollectiveBytes(0), m.CollectiveBytes(1))
	}
}

func TestMeterSnapshotSub(t *testing.T) {
	w, err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 7, []float64{1, 2, 3})
		} else {
			Recv[float64](c, 0, 7)
		}
		c.AllreduceSum(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := w.Meter().Snapshot()
	if s1.P2PBytes != 24 || s1.P2PMessages != 1 || s1.CollectiveCalls != 2 || s1.CollectiveBytes != 16 {
		t.Fatalf("snapshot = %+v", s1)
	}
	// A second phase on the same world; Sub isolates it.
	w2 := w // reuse the world's meter: record directly
	w2.Meter().record(0, 1, 8)
	s2 := w.Meter().Snapshot()
	d := s2.Sub(s1)
	if d.P2PBytes != 8 || d.P2PMessages != 1 || d.CollectiveCalls != 0 || d.CollectiveBytes != 0 {
		t.Fatalf("snapshot diff = %+v", d)
	}
	w.Meter().Reset()
	if s := w.Meter().Snapshot(); s != (Snapshot{}) {
		t.Fatalf("post-reset snapshot = %+v", s)
	}
}
