package simmpi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The nonblocking suite once more with no wait polling: every Wait, drain,
// predecessor and receive that finds nothing parks, which the shipped poll
// mostly keeps tests this quick from doing.
func TestAsyncWithEveryWaitParked(t *testing.T) {
	defer PollFor(0)()
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"IallreduceSumMatchesBlocking", TestIallreduceSumMatchesBlocking},
		{"IallreduceOverlapsP2P", TestIallreduceOverlapsP2P},
		{"RequestDoubleWaitErrors", TestRequestDoubleWaitErrors},
		{"IsendIrecvFloats", TestIsendIrecvFloats},
		{"IrecvBeforeIsendNoDeadlock", TestIrecvBeforeIsendNoDeadlock},
		{"ManyOutstandingRequestsOutOfOrderWaits", TestManyOutstandingRequestsOutOfOrderWaits},
		{"BlockingCollectiveDrainsOutstanding", TestBlockingCollectiveDrainsOutstanding},
		{"MixedSendOrderPreserved", TestMixedSendOrderPreserved},
		{"AsyncDeadlockSurfacesThroughWait", TestAsyncDeadlockSurfacesThroughWait},
	} {
		t.Run(tc.name, tc.fn)
	}
}

// A receive nobody sends to fails with the deadlock error when its timeout
// runs out, polling or not: the poll comes out of the first 100 µs of the
// wait, it is not a way round the timer. The bound is on the best of three
// tries, since a busy host may fire any one timer late.
func TestUnansweredReceiveStillTimesOut(t *testing.T) {
	const timeout = 50 * time.Millisecond
	for _, poll := range []time.Duration{pollFor, 0} {
		t.Run(fmt.Sprint("poll ", poll), func(t *testing.T) {
			defer PollFor(poll)()
			best := time.Hour
			for try := 0; try < 3 && best > timeout+5*time.Millisecond; try++ {
				var took time.Duration
				_, err := Run(2, timeout, func(c *Comm) error {
					if c.Rank() == 1 {
						start := time.Now()
						defer func() { took = time.Since(start) }()
						c.RecvFloats(0, 0)
					}
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), "timed out receiving from 0 (deadlock?)") {
					t.Fatalf("err = %v, want the deadlock timeout", err)
				}
				if took < timeout {
					t.Fatalf("gave up after %v, before the %v timeout", took, timeout)
				}
				best = min(best, took)
			}
			if best > timeout+5*time.Millisecond {
				t.Errorf("a receive with a %v timeout failed after %v", timeout, best)
			}
		})
	}
}

// Once Run returns nothing of the world is left running: no rank, no
// background operation — an Isend nobody waited for included — and no poller.
func TestNoGoroutineLeftPolling(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, gmp := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(gmp)
		_, err := Run(8, testTimeout, func(c *Comm) error {
			next, before := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
			for i := 0; i < 50; i++ {
				recv := c.IrecvFloats(before, i)
				c.IsendFloats(next, i, []float64{float64(i)})
				sum := c.IallreduceSum(1)
				if got, err := recv.Wait(); err != nil || got[0] != float64(i) {
					return fmt.Errorf("rank %d round %d: received %v, %v", c.Rank(), i, got, err)
				}
				if got, err := sum.Wait(); err != nil || got[0] != 8 {
					return fmt.Errorf("rank %d round %d: sum %v, %v", c.Rank(), i, got, err)
				}
				c.Barrier()
			}
			return nil
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", gmp, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("GOMAXPROCS %d: %d goroutines, %d before the world ran:\n%s", gmp, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// Every blocking wait of a rank's goroutine ends in exactly one of the three
// counters, and with the poll off none ends in "polled".
func TestWaitsAreCounted(t *testing.T) {
	for _, poll := range []time.Duration{pollFor, 0} {
		t.Run(fmt.Sprint("poll ", poll), func(t *testing.T) {
			defer PollFor(poll)()
			var waits [2]Waits
			_, err := Run(2, testTimeout, func(c *Comm) error {
				peer := 1 - c.Rank()
				for i := 0; i < 100; i++ {
					c.SendFloats(peer, i, []float64{1})
					c.RecvFloats(peer, i) // one wait on the channel
					c.AllreduceSum(1)     // one wait: rank 0 gathers, rank 1 takes the result
				}
				req := c.IrecvFloats(peer, 100)
				c.SendFloats(peer, 100, nil)
				_, err := req.Wait() // one wait, for the background receive
				waits[c.Rank()] = c.Waits()
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, w := range waits {
				if total := w.Ready + w.Polled + w.Parked; total != 201 || (poll == 0 && w.Polled != 0) {
					t.Errorf("rank %d: %+v, want 201 waits in all", r, w)
				}
			}
		})
	}
}

// A collective's contributions are lined up in storage the world keeps, so a
// 1-value AllreduceSum on 2 ranks allocates three times — each rank's
// argument slice and the reduced vector — where it used to allocate four.
// The world has no timeout, so no wait arms a timer.
func TestAllreduceAllocatesNoPartsSlice(t *testing.T) {
	w := NewWorldTopo(2, 0, Topology{})
	c0, c1 := w.Comm(0), w.Comm(1)
	enter, left := make(chan struct{}), make(chan struct{})
	go func() {
		for range enter {
			c1.AllreduceSum(2)
			left <- struct{}{}
		}
	}()
	defer close(enter)
	if allocs := testing.AllocsPerRun(200, func() {
		enter <- struct{}{}
		if sum := c0.AllreduceSum(1); sum[0] != 3 {
			panic(fmt.Sprint("sum ", sum))
		}
		<-left
	}); allocs > 3 {
		t.Fatalf("a 1-value AllreduceSum on 2 ranks allocates %v times, want at most 3", allocs)
	}
}
