package simmpi

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Done reports whether the operation has completed (Wait would not block).
func (r *op) Done() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// IallreduceSum must agree with AllreduceSum and be metered identically.
func TestIallreduceSumMatchesBlocking(t *testing.T) {
	const nranks = 4
	w, err := Run(nranks, testTimeout, func(c *Comm) error {
		req := c.IallreduceSum(float64(c.Rank()), 1)
		got, err := req.Wait()
		if err != nil {
			return err
		}
		if got[0] != 6 || got[1] != float64(nranks) {
			return fmt.Errorf("rank %d: got %v, want [6 %d]", c.Rank(), got, nranks)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nranks; r++ {
		if calls := w.Meter().CollectiveCalls(r); calls != 1 {
			t.Fatalf("rank %d: %d collective calls, want 1", r, calls)
		}
		if b := w.Meter().CollectiveBytes(r); b != 16 {
			t.Fatalf("rank %d: %d collective bytes, want 16", r, b)
		}
	}
}

// The overlap idiom: post the reduction, do unrelated point-to-point work
// while it is in flight, then wait. The collective must complete even
// though every rank is busy with p2p traffic between post and wait.
func TestIallreduceOverlapsP2P(t *testing.T) {
	_, err := Run(4, testTimeout, func(c *Comm) error {
		req := c.IallreduceSum(1)
		next, prev := (c.Rank()+1)%4, (c.Rank()+3)%4
		Send(c, next, 5, []float64{float64(c.Rank())})
		got := Recv[float64](c, prev, 5)
		if got[0] != float64(prev) {
			return fmt.Errorf("p2p payload %v, want %d", got, prev)
		}
		sum, err := req.Wait()
		if err != nil {
			return err
		}
		if sum[0] != 4 {
			return fmt.Errorf("reduction %v, want 4", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Waiting a handle twice must error (wrapping ErrWaited), not deadlock.
func TestRequestDoubleWaitErrors(t *testing.T) {
	_, err := Run(2, testTimeout, func(c *Comm) error {
		req := c.IallreduceSum(1)
		if _, err := req.Wait(); err != nil {
			return err
		}
		if _, err := req.Wait(); !errors.Is(err, ErrWaited) {
			return fmt.Errorf("second Wait: got %v, want ErrWaited", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Isend/Irecv round trip with metering identical to the blocking twins.
func TestIsendIrecvFloats(t *testing.T) {
	w, err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			req := Isend(c, 1, 9, buf)
			buf[0] = 99 // payload must have been copied at post time
			_, err := req.Wait()
			return err
		}
		req := Irecv[float64](c, 0, 9)
		got, err := req.Wait()
		if err != nil {
			return err
		}
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
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
}

// The post-recv-then-send idiom must not deadlock: both ranks post their
// receives first, then their sends, then wait — the pattern a nonblocking
// halo exchange uses.
func TestIrecvBeforeIsendNoDeadlock(t *testing.T) {
	_, err := Run(2, testTimeout, func(c *Comm) error {
		peer := 1 - c.Rank()
		recv := Irecv[float64](c, peer, 3)
		send := Isend(c, peer, 3, []float64{float64(c.Rank())})
		got, err := recv.Wait()
		if err != nil {
			return err
		}
		if got[0] != float64(peer) {
			return fmt.Errorf("got %v, want %d", got, peer)
		}
		_, err = send.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Stress: many outstanding IallreduceSum and Isend/Irecv handles at once,
// waited out of post order, on every rank, with results checked per
// operation. Run under -race in tier2, this is the race gate for the
// chain bookkeeping.
func TestManyOutstandingRequestsOutOfOrderWaits(t *testing.T) {
	const (
		nranks = 4
		nops   = 64
	)
	_, err := Run(nranks, testTimeout, func(c *Comm) error {
		next, prev := (c.Rank()+1)%nranks, (c.Rank()+nranks-1)%nranks
		colls := make([]*Request[float64], nops)
		sends := make([]*Request[float64], nops)
		recvs := make([]*Request[float64], nops)
		for i := 0; i < nops; i++ {
			colls[i] = c.IallreduceSum(float64(i), 1)
			recvs[i] = Irecv[float64](c, prev, 40)
			sends[i] = Isend(c, next, 40, []float64{float64(c.Rank()*nops + i)})
		}
		// Wait in a rank-dependent shuffled order: out-of-order waits must
		// neither deadlock nor cross results between handles.
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 7))
		order := rng.Perm(nops)
		for _, i := range order {
			g, err := colls[i].Wait()
			if err != nil {
				return err
			}
			if g[0] != float64(i*nranks) || g[1] != nranks {
				return fmt.Errorf("collective %d: got %v", i, g)
			}
			v, err := recvs[i].Wait()
			if err != nil {
				return err
			}
			if v[0] != float64(prev*nops+i) {
				return fmt.Errorf("recv %d: got %v, want %d", i, v, prev*nops+i)
			}
			if _, err := sends[i].Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Blocking collectives issued while nonblocking ones are outstanding must
// wait for them, preserving one per-rank collective order.
func TestBlockingCollectiveDrainsOutstanding(t *testing.T) {
	_, err := Run(3, testTimeout, func(c *Comm) error {
		r1 := c.IallreduceSum(1)
		r2 := c.IallreduceSum(2)
		max := c.AllreduceMax(float64(c.Rank()))
		if max[0] != 2 {
			return fmt.Errorf("max %v, want 2", max)
		}
		if !r1.Done() || !r2.Done() {
			return fmt.Errorf("outstanding reductions not drained before blocking collective")
		}
		s1, err := r1.Wait()
		if err != nil {
			return err
		}
		s2, err := r2.Wait()
		if err != nil {
			return err
		}
		if s1[0] != 3 || s2[0] != 6 {
			return fmt.Errorf("sums %v %v, want 3 6", s1, s2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A mix of blocking and nonblocking sends to the same peer must preserve
// per-sender FIFO order.
func TestMixedSendOrderPreserved(t *testing.T) {
	_, err := Run(2, testTimeout, func(c *Comm) error {
		if c.Rank() == 0 {
			Isend(c, 1, 11, []float64{1})
			Send(c, 1, 11, []float64{2}) // must drain the Isend first
			Isend(c, 1, 11, []float64{3})
			c.Barrier()
			return nil
		}
		for want := 1.0; want <= 3; want++ {
			got := Recv[float64](c, 0, 11)
			if got[0] != want {
				return fmt.Errorf("got %v, want %v", got, want)
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A deadlocked nonblocking collective (only one rank posts it) must turn
// into a timeout panic surfaced through Wait, recovered by Run.
func TestAsyncDeadlockSurfacesThroughWait(t *testing.T) {
	_, err := Run(2, 50*time.Millisecond, func(c *Comm) error {
		if c.Rank() == 0 {
			req := c.IallreduceSum(1) // rank 1 never joins
			_, err := req.Wait()      // re-raises the timeout panic
			return err
		}
		return nil
	})
	if err == nil {
		t.Fatal("want timeout error, got nil")
	}
}
