package tcpmpi

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsaicomm/internal/simmpi"
)

// TestRunLocalBasicTCPAndUnix runs the smallest mesh both ways a rank waits:
// "tcp" polls first, "unix" parks at once (the names are the test floor's,
// from when the two runs were two socket families).
func TestRunLocalBasicTCPAndUnix(t *testing.T) {
	for network, polls := range map[string]bool{"tcp": true, "unix": false} {
		t.Run(network, func(t *testing.T) {
			if !polls {
				defer simmpi.PollFor(0)()
			}
			m, err := RunLocal(3, Config{Timeout: 10 * time.Second}, func(c *simmpi.Comm) error {
				if c.Rank() == 0 {
					simmpi.Send(c, 1, 5, []float64{1, 2})
					simmpi.Send(c, 2, 6, []int{7})
				}
				if c.Rank() == 1 {
					got := simmpi.Recv[float64](c, 0, 5)
					if len(got) != 2 || got[1] != 2 {
						t.Errorf("rank 1 got %v", got)
					}
				}
				if c.Rank() == 2 {
					got := simmpi.Recv[int](c, 0, 6)
					if len(got) != 1 || got[0] != 7 {
						t.Errorf("rank 2 got %v", got)
					}
				}
				sum := c.AllreduceSum(float64(c.Rank() + 1))
				if sum[0] != 6 {
					t.Errorf("rank %d sum = %v", c.Rank(), sum)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if b := m.TotalP2PBytes(); b != 24 {
				t.Fatalf("p2p bytes = %d, want 24", b)
			}
			if n := m.Snapshot().CollectiveCalls; n != 3 {
				t.Fatalf("collective calls = %d, want 3", n)
			}
		})
	}
}

// A rank that exits early closes its side of the mesh; peers blocked on it
// must get a clean ErrRankLost-style error, not a hang.
func TestDeadRankSurfacesRankLost(t *testing.T) {
	start := time.Now()
	_, err := RunLocal(2, Config{Timeout: 5 * time.Second}, func(c *simmpi.Comm) error {
		if c.Rank() == 1 {
			return nil // dies without sending
		}
		simmpi.Recv[float64](c, 1, 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank lost") {
		t.Fatalf("dead rank not surfaced as rank lost: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("rank-lost detection took %v, want well under the timeout", elapsed)
	}
}

// A dropped frame never arrives; the receiver's bounded wait must expire
// with a timeout error rather than blocking forever.
func TestDroppedFrameTimesOut(t *testing.T) {
	cfg := Config{
		Timeout: 500 * time.Millisecond,
		Wrap: func(rank int, tr simmpi.Transport) simmpi.Transport {
			if rank != 0 {
				return tr
			}
			return WithFaults(tr, Faults{
				Drop: func(dst int, p simmpi.Payload) bool { return true },
			})
		},
	}
	_, err := RunLocal(2, cfg, func(c *simmpi.Comm) error {
		if c.Rank() == 0 {
			simmpi.Send(c, 1, 0, []float64{1})
			// Stay alive past the receiver's timeout so the failure is the
			// bounded wait expiring, not this endpoint closing.
			time.Sleep(800 * time.Millisecond)
			return nil
		}
		simmpi.Recv[float64](c, 0, 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("dropped frame not detected: %v", err)
	}
}

func TestDuplicatedFrameArrivesTwice(t *testing.T) {
	cfg := Config{
		Timeout: 5 * time.Second,
		Wrap: func(rank int, tr simmpi.Transport) simmpi.Transport {
			if rank != 0 {
				return tr
			}
			return WithFaults(tr, Faults{
				Duplicate: func(dst int, p simmpi.Payload) bool { return true },
			})
		},
	}
	_, err := RunLocal(2, cfg, func(c *simmpi.Comm) error {
		if c.Rank() == 0 {
			simmpi.Send(c, 1, 3, []float64{9})
			return nil
		}
		first := simmpi.Recv[float64](c, 0, 3)
		second := simmpi.Recv[float64](c, 0, 3)
		if len(first) != 1 || len(second) != 1 || first[0] != 9 || second[0] != 9 {
			t.Errorf("duplicate delivery = %v, %v", first, second)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDelayedFrameStillArrives(t *testing.T) {
	var delayed atomic.Int32
	cfg := Config{
		Timeout: 5 * time.Second,
		Wrap: func(rank int, tr simmpi.Transport) simmpi.Transport {
			return WithFaults(tr, Faults{
				Delay: func(dst int, p simmpi.Payload) time.Duration {
					delayed.Add(1)
					return 30 * time.Millisecond
				},
			})
		},
	}
	_, err := RunLocal(2, cfg, func(c *simmpi.Comm) error {
		if c.Rank() == 0 {
			simmpi.Send(c, 1, 0, []float64{4})
			return nil
		}
		if got := simmpi.Recv[float64](c, 0, 0); len(got) != 1 || got[0] != 4 {
			t.Errorf("delayed delivery = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delayed.Load() == 0 {
		t.Fatal("delay hook never ran")
	}
}

// A write-time connection failure is reported on the sender as ErrRankLost.
func TestFailSendSurfacesOnSender(t *testing.T) {
	cfg := Config{
		Timeout: 2 * time.Second,
		Wrap: func(rank int, tr simmpi.Transport) simmpi.Transport {
			if rank != 0 {
				return tr
			}
			return WithFaults(tr, Faults{
				FailSend: func(dst int, p simmpi.Payload) error {
					return simmpi.ErrRankLost
				},
			})
		},
	}
	_, err := RunLocal(2, cfg, func(c *simmpi.Comm) error {
		if c.Rank() == 0 {
			simmpi.Send(c, 1, 0, []float64{1})
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank lost") {
		t.Fatalf("failed send not surfaced: %v", err)
	}
}
