// Package commtest is the transport conformance suite: one table-driven
// corpus of message-passing semantics, run identically against every
// simmpi.Transport backend. The in-process channel backend is the oracle
// (its semantics predate the Transport split); the ring backend must pass
// the same table verbatim, under both `go test` and `go test -race`. A new
// backend earns its place by adding a three-line harness, not new tests.
// A backend only moves payloads on two lanes; the collective rendezvous
// above them is simmpi.Comm's own, so the collective cases check that one
// body over each backend's collective lane.
//
// The cases only assert behavior observable through the Comm API plus
// process-shared memory (atomics), because every harness runs its ranks as
// goroutines of the test process — the channel world directly, the ring
// world via tcpmpi.RunLocal. True multi-process behavior is covered by the
// differential solve tests in the root package.
package commtest

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsaicomm/internal/simmpi"
)

// Harness adapts one backend to the suite: Run executes fn on every rank of
// a fresh size-rank world with the given blocking-operation bound, returning
// the world's merged traffic meter and the first per-rank error (panics
// recovered, in rank order).
type Harness struct {
	Name string
	Run  func(size int, timeout time.Duration, fn func(c *simmpi.Comm) error) (*simmpi.Meter, error)
}

// Case is one conformance table entry. fn runs on every rank; check judges
// the merged meter and the run error.
type conformanceCase struct {
	name    string
	size    int
	timeout time.Duration // 0 = the suite default
	fn      func(c *simmpi.Comm) error
	check   func(t *testing.T, m *simmpi.Meter, err error)
}

const defaultTimeout = 10 * time.Second

func wantOK(t *testing.T, m *simmpi.Meter, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func wantErrContaining(substr string) func(t *testing.T, m *simmpi.Meter, err error) {
	return func(t *testing.T, m *simmpi.Meter, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), substr) {
			t.Fatalf("want error containing %q, got %v", substr, err)
		}
	}
}

func eq[T simmpi.Elem](got []T, want ...T) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("got %v, want %v", got, want)
		}
	}
	return nil
}

// ramp is n values no two messages of a case share: message tag of rank from.
func ramp(from, tag, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(from) + float64(tag)/4096 + float64(i)*8
	}
	return v
}

// RunConformance runs the whole corpus against one backend.
func RunConformance(t *testing.T, h Harness) {
	for _, tc := range cases() {
		t.Run(tc.name, func(t *testing.T) {
			timeout := tc.timeout
			if timeout == 0 {
				timeout = defaultTimeout
			}
			m, err := h.Run(tc.size, timeout, tc.fn)
			tc.check(t, m, err)
		})
	}
}

func cases() []conformanceCase {
	return []conformanceCase{
		{
			// Messages from one sender arrive in send order even when
			// several senders interleave; tags distinguish phases.
			name: "pair-ordering",
			size: 4,
			fn: func(c *simmpi.Comm) error {
				const msgs = 10
				if c.Rank() != 0 {
					for i := 0; i < msgs; i++ {
						simmpi.Send(c, 0, i, []float64{float64(100*c.Rank() + i)})
					}
					return nil
				}
				for src := 1; src < c.Size(); src++ {
					for i := 0; i < msgs; i++ {
						got := simmpi.Recv[float64](c, src, i)
						if err := eq(got, float64(100*src+i)); err != nil {
							return fmt.Errorf("src %d msg %d: %w", src, i, err)
						}
					}
				}
				return nil
			},
			check: wantOK,
		},
		{
			// A receive whose next-arriving message carries a different tag
			// is a protocol bug and must fail loudly.
			name: "tag-mismatch",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				if c.Rank() == 0 {
					simmpi.Send(c, 1, 7, []float64{1})
					return nil
				}
				simmpi.Recv[float64](c, 0, 8)
				return nil
			},
			check: wantErrContaining("expected tag 8 from 0, got 7"),
		},
		{
			// The transport owns a copy: mutating the caller's buffer after
			// Send must not affect what the receiver sees.
			name: "payload-copy-on-send",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				if c.Rank() == 0 {
					buf := []float64{1, 2, 3}
					simmpi.Send(c, 1, 0, buf)
					buf[0], buf[1], buf[2] = -1, -2, -3
					simmpi.Send(c, 1, 1, buf)
					return nil
				}
				if err := eq(simmpi.Recv[float64](c, 0, 0), 1, 2, 3); err != nil {
					return err
				}
				return eq(simmpi.Recv[float64](c, 0, 1), -1, -2, -3)
			},
			check: wantOK,
		},
		{
			// Self-sends are a defined no-copy loopback on every backend:
			// the receiver shares the sender's backing array, nothing is
			// metered, and transports never see the message.
			name: "self-send-loopback",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				sent := []float64{float64(c.Rank()), 42}
				simmpi.Send(c, c.Rank(), 3, sent)
				got := simmpi.Recv[float64](c, c.Rank(), 3)
				if err := eq(got, float64(c.Rank()), 42); err != nil {
					return err
				}
				if &got[0] != &sent[0] {
					return fmt.Errorf("rank %d: self-send copied the payload", c.Rank())
				}
				simmpi.Send(c, c.Rank(), 4, []int{c.Rank()})
				if ints := simmpi.Recv[int](c, c.Rank(), 4); len(ints) != 1 || ints[0] != c.Rank() {
					return fmt.Errorf("rank %d: self ints = %v", c.Rank(), ints)
				}
				return nil
			},
			check: func(t *testing.T, m *simmpi.Meter, err error) {
				wantOK(t, m, err)
				if n := m.Snapshot().P2PMessages; n != 0 {
					t.Fatalf("self-sends metered: %d messages", n)
				}
			},
		},
		{
			// Float collectives reduce in rank order on every backend, so
			// the results are bitwise identical, not merely close.
			name: "collectives-float",
			size: 4,
			fn: func(c *simmpi.Comm) error {
				r := float64(c.Rank())
				// 0.1 is inexact in binary; summing it in different orders
				// gives different bit patterns, which is exactly what the
				// rank-ordered reduction contract forbids.
				want := 0.1 + 1.1 + 2.1 + 3.1
				if err := eq(simmpi.Allreduce(c, simmpi.Sum, r+0.1, -r), want, -6); err != nil {
					return fmt.Errorf("sum: %w", err)
				}
				if err := eq(simmpi.Allreduce(c, simmpi.Max, r, -r), 3, 0); err != nil {
					return fmt.Errorf("max: %w", err)
				}
				if err := eq(simmpi.Allgather(c, []float64{r * 10}), 0, 10, 20, 30); err != nil {
					return fmt.Errorf("allgather: %w", err)
				}
				return nil
			},
			check: wantOK,
		},
		{
			// Int collectives: ints travel as 64-bit values on every backend.
			name: "collectives-int64",
			size: 3,
			fn: func(c *simmpi.Comm) error {
				r := c.Rank()
				if err := eq(simmpi.Allreduce(c, simmpi.Sum, r, 1), 3, 3); err != nil {
					return fmt.Errorf("sum: %w", err)
				}
				if err := eq(simmpi.Allreduce(c, simmpi.Max, -r), 0); err != nil {
					return fmt.Errorf("max: %w", err)
				}
				if err := eq(simmpi.Allgather(c, []int{r, r}), 0, 0, 1, 1, 2, 2); err != nil {
					return fmt.Errorf("allgather: %w", err)
				}
				got := simmpi.Allgather(c, []int{c.Rank() + 5})
				if len(got) != 3 || got[0] != 5 || got[1] != 6 || got[2] != 7 {
					return fmt.Errorf("allgather int: %v", got)
				}
				return nil
			},
			check: wantOK,
		},
		{
			// Each collective carries float64 and int values alike, meters
			// 8 bytes a value and one call per rank, and takes zero-length
			// contributions. A float sum adds from +0 in ascending rank
			// order: 1e16 + 1 loses the 1 before −1e16 comes, where adding
			// rank 2's value before rank 1's would give 1; and 1e16 + 1 + 1
			// loses both, where descending order, 1 + 1 + 1e16, keeps them.
			name: "collectives-every-element-type",
			size: 3,
			fn: func(c *simmpi.Comm) error {
				me := c.Rank()
				r := float64(me)
				steps := []struct {
					what   string
					values int // each rank's contribution
					run    func() error
				}{
					{"float64 sum", 2, func() error { return eq(simmpi.Allreduce(c, simmpi.Sum, r, 0.5), 3, 1.5) }},
					{"float64 max", 2, func() error { return eq(simmpi.Allreduce(c, simmpi.Max, -r, r), 0, 2) }},
					{"int sum", 2, func() error { return eq(simmpi.Allreduce(c, simmpi.Sum, me, 1), 3, 3) }},
					{"int max", 2, func() error { return eq(simmpi.Allreduce(c, simmpi.Max, -me, me), 0, 2) }},
					{"float64 allgather", 1, func() error { return eq(simmpi.Allgather(c, []float64{r / 2}), 0, 0.5, 1) }},
					{"int allgather", 2, func() error { return eq(simmpi.Allgather(c, []int{me, -me}), 0, 0, 1, -1, 2, -2) }},
					{"rank-ordered sum", 2, func() error {
						return eq(simmpi.Allreduce(c, simmpi.Sum, []float64{1e16, 1, -1e16}[me], []float64{1e16, 1, 1}[me]), 0, 1e16)
					}},
					{"empty float64 allgather", 0, func() error { return eq(simmpi.Allgather[float64](c, nil)) }},
					{"empty int allgather", 0, func() error { return eq(simmpi.Allgather(c, []int{})) }},
					{"barrier", 0, func() error { c.Barrier(); return nil }},
				}
				for _, s := range steps {
					before := c.Meter().RankSnapshot(me)
					if err := s.run(); err != nil {
						return fmt.Errorf("rank %d, %s: %w", me, s.what, err)
					}
					d := c.Meter().RankSnapshot(me).Sub(before)
					if d.CollectiveCalls != 1 || d.CollectiveBytes != int64(8*s.values) {
						return fmt.Errorf("rank %d, %s: %d calls and %d bytes metered, want 1 and %d",
							me, s.what, d.CollectiveCalls, d.CollectiveBytes, 8*s.values)
					}
				}
				return nil
			},
			check: func(t *testing.T, m *simmpi.Meter, err error) {
				wantOK(t, m, err)
				if s := m.Snapshot(); s.CollectiveCalls != 3*10 || s.CollectiveBytes != 3*8*13 || s.P2PMessages != 0 {
					t.Errorf("meter %+v, want 30 collective calls, 312 bytes and no messages", s)
				}
			},
		},
		{
			// No rank may observe the world past a barrier before every
			// rank has reached it.
			name: "barrier-ordering",
			size: 4,
			fn: func() func(c *simmpi.Comm) error {
				var entered atomic.Int32
				return func(c *simmpi.Comm) error {
					if c.Rank() == 0 {
						time.Sleep(20 * time.Millisecond) // straggler
					}
					entered.Add(1)
					c.Barrier()
					if n := entered.Load(); n != 4 {
						return fmt.Errorf("rank %d passed barrier with %d/4 ranks entered", c.Rank(), n)
					}
					return nil
				}
			}(),
			check: wantOK,
		},
		{
			name: "empty-payloads",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				if c.Rank() == 0 {
					simmpi.Send[float64](c, 1, 0, nil)
					simmpi.Send(c, 1, 1, []float64{})
					return nil
				}
				if got := simmpi.Recv[float64](c, 0, 0); len(got) != 0 {
					return fmt.Errorf("nil send arrived as %v", got)
				}
				if got := simmpi.Recv[float64](c, 0, 1); len(got) != 0 {
					return fmt.Errorf("empty send arrived as %v", got)
				}
				// Ranks may contribute unevenly to an allgather, including
				// nothing at all.
				return nil
			},
			check: wantOK,
		},
		{
			name: "allgather-uneven",
			size: 3,
			fn: func(c *simmpi.Comm) error {
				var mine []float64
				for i := 0; i < c.Rank(); i++ {
					mine = append(mine, float64(10*c.Rank()+i))
				}
				return eq(simmpi.Allgather(c, mine), 10, 20, 21)
			},
			check: wantOK,
		},
		{
			// Mismatched collective ops across ranks must be detected, not
			// silently reduced.
			name: "collective-op-mismatch",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				if c.Rank() == 0 {
					c.Barrier()
				} else {
					simmpi.Allreduce(c, simmpi.Sum, 1.0)
				}
				return nil
			},
			check: wantErrContaining("collective mismatch"),
		},
		{
			name:    "payload-type-mismatch",
			size:    2,
			timeout: 2 * time.Second,
			fn: func(c *simmpi.Comm) error {
				if c.Rank() == 0 {
					simmpi.Send(c, 1, 0, []int{1})
					return nil
				}
				simmpi.Recv[float64](c, 0, 0)
				return nil
			},
			check: wantErrContaining("expected floats from 0 tag 0, got ints"),
		},
		{
			// Sends of every element type cross a pair and wait on the lane
			// while a reduction runs: the values arrive, each send is
			// metered when it is made (8, 4 and 8 bytes a value), the
			// reduction comes out whole, and a receive of the wrong type
			// fails loudly.
			name: "nonblocking-every-element-type",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				me, peer := c.Rank(), 1-c.Rank()
				before := c.Meter().RankSnapshot(me).P2PBytes
				simmpi.Send(c, peer, 0, []float64{float64(me), 0.1})
				simmpi.Send(c, peer, 1, []float32{float32(me), 0.1, 3})
				simmpi.Send(c, peer, 2, []int{me, -7})
				if got := c.Meter().RankSnapshot(me).P2PBytes - before; got != 2*8+3*4+2*8 {
					return fmt.Errorf("rank %d: %d bytes metered as sent, want 44", me, got)
				}
				if got := simmpi.Allreduce(c, simmpi.Sum, float64(me)); eq(got, 1) != nil {
					return fmt.Errorf("rank %d: sum %v", me, got)
				}
				if got := simmpi.Recv[float64](c, peer, 0); eq(got, float64(peer), 0.1) != nil {
					return fmt.Errorf("rank %d: float64s %v", me, got)
				}
				if got := simmpi.Recv[float32](c, peer, 1); len(got) != 3 || got[0] != float32(peer) || got[1] != 0.1 || got[2] != 3 {
					return fmt.Errorf("rank %d: float32s %v", me, got)
				}
				if got := simmpi.Recv[int](c, peer, 2); len(got) != 2 || got[0] != peer || got[1] != -7 {
					return fmt.Errorf("rank %d: ints %v", me, got)
				}
				if me == 0 {
					simmpi.Send(c, 1, 3, []float64{1})
					return nil
				}
				simmpi.Recv[float32](c, 0, 3)
				return nil
			},
			check: func(t *testing.T, m *simmpi.Meter, err error) {
				wantErrContaining("rank 1 expected float32s from 0 tag 3, got floats")(t, m, err)
				if got := m.TotalP2PBytes(); got != 2*44+8 {
					t.Errorf("TotalP2PBytes = %d, want 96", got)
				}
			},
		},
		{
			name: "invalid-peer",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				if c.Rank() == 0 {
					simmpi.Send(c, 5, 0, []float64{1})
				}
				return nil
			},
			check: wantErrContaining("invalid peer"),
		},
		{
			// A receive nothing will ever satisfy must fail within the
			// bound, not hang — on any backend.
			name:    "recv-deadlock-bounded",
			size:    2,
			timeout: 300 * time.Millisecond,
			fn: func(c *simmpi.Comm) error {
				if c.Rank() == 0 {
					simmpi.Recv[float64](c, 1, 0)
					return nil
				}
				time.Sleep(600 * time.Millisecond) // alive but silent
				return nil
			},
			check: wantErrContaining("timed out"),
		},
		{
			// A fixed traffic pattern must produce identical meter counters
			// on every backend: metering is part of the contract, since the
			// paper's structural claims are asserted against it.
			name: "meter-parity",
			size: 3,
			fn: func(c *simmpi.Comm) error {
				switch c.Rank() {
				case 0:
					simmpi.Send(c, 1, 0, []float64{1, 2, 3}) // 24 B
					simmpi.Send(c, 2, 1, []int{1})           // 8 B
					simmpi.Send(c, 0, 2, []float64{9})       // loopback: unmetered
					simmpi.Recv[float64](c, 0, 2)
				case 1:
					simmpi.Recv[float64](c, 0, 0)
					simmpi.Send(c, 2, 2, []float64{4, 5}) // 16 B
				case 2:
					simmpi.Recv[int](c, 0, 1)
					simmpi.Recv[float64](c, 1, 2)
				}
				c.Barrier()                             // 0 B, 1 call per rank
				simmpi.Allreduce(c, simmpi.Sum, 1.0, 2) // 16 B per rank
				simmpi.Allgather(c, []int{1})           // 8 B per rank
				return nil
			},
			check: func(t *testing.T, m *simmpi.Meter, err error) {
				wantOK(t, m, err)
				if got := m.TotalP2PBytes(); got != 48 {
					t.Errorf("TotalP2PBytes = %d, want 48", got)
				}
				if got := m.Snapshot().P2PMessages; got != 3 {
					t.Errorf("Snapshot().P2PMessages = %d, want 3", got)
				}
				if got := m.PairBytes(0, 1); got != 24 {
					t.Errorf("PairBytes(0,1) = %d, want 24", got)
				}
				if got := m.PairBytes(1, 2); got != 16 {
					t.Errorf("PairBytes(1,2) = %d, want 16", got)
				}
				if got := m.Snapshot().CollectiveCalls; got != 9 {
					t.Errorf("Snapshot().CollectiveCalls = %d, want 9", got)
				}
				if got := m.Snapshot().CollectiveBytes; got != 72 {
					t.Errorf("Snapshot().CollectiveBytes = %d, want 72", got)
				}
				ns := m.NeighborSets()
				if len(ns[0]) != 2 || ns[0][0] != 1 || ns[0][1] != 2 ||
					len(ns[1]) != 1 || ns[1][0] != 2 || len(ns[2]) != 0 {
					t.Errorf("NeighborSets = %v", ns)
				}
				if got := m.MaxRankP2PBytes(); got != 32 {
					t.Errorf("MaxRankP2PBytes = %d, want 32", got)
				}
			},
		},
		{
			// No backend may bound a message by what it buffers: two ranks
			// that each send the other far more than any channel, socket or
			// ring holds, and only then receive, must both finish.
			name: "large-messages-both-ways",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				peer := 1 - c.Rank()
				simmpi.Send(c, peer, 0, ramp(c.Rank(), 0, 100_000))
				simmpi.Send(c, peer, 1, []int{c.Rank()})
				if err := eq(simmpi.Recv[float64](c, peer, 0), ramp(peer, 0, 100_000)...); err != nil {
					return fmt.Errorf("rank %d: %w", c.Rank(), err)
				}
				if got := simmpi.Recv[int](c, peer, 1); len(got) != 1 || got[0] != peer {
					return fmt.Errorf("rank %d: after the large message: %v", c.Rank(), got)
				}
				return nil
			},
			check: wantOK,
		},
		{
			// Send to every neighbour, then receive from every neighbour —
			// the set-up exchanges' idiom — with sizes that leave every rank
			// stuck in a send whose receiver is stuck in a send to a third:
			// 0 is sending 2 a large message, 2 is sending 1 one, 1 is
			// sending 0 one. Each rank must take what is sent to it off the
			// sender's hands while it waits, whoever it is waiting for.
			name: "large-messages-around-a-circle",
			size: 3,
			fn: func(c *simmpi.Comm) error {
				me := c.Rank()
				n := func(from, to int) int {
					if to == (from+2)%3 {
						return 60_000
					}
					return 3
				}
				for to := 0; to < 3; to++ {
					if to != me {
						simmpi.Send(c, to, 5, ramp(me, to, n(me, to)))
					}
				}
				for from := 0; from < 3; from++ {
					if from == me {
						continue
					}
					if err := eq(simmpi.Recv[float64](c, from, 5), ramp(from, me, n(from, me))...); err != nil {
						return fmt.Errorf("rank %d from %d: %w", me, from, err)
					}
				}
				return nil
			},
			check: wantOK,
		},
		{
			// A long stream of messages of every type and of lengths from
			// nothing to a few thousand values, both ways at once: several
			// times what a backend buffers, so that message boundaries fall
			// all over its storage, and every value checked.
			name: "stream-of-every-length",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				me, peer := c.Rank(), 1-c.Rank()
				for i := 0; i < 600; i++ {
					n := (i * 7919) % 3001
					switch i % 3 {
					case 0:
						simmpi.Send(c, peer, i, ramp(me, i, n))
						if err := eq(simmpi.Recv[float64](c, peer, i), ramp(peer, i, n)...); err != nil {
							return fmt.Errorf("rank %d message %d: %w", me, i, err)
						}
					case 1:
						out := make([]int, n)
						for k := range out {
							out[k] = me + i*k
						}
						simmpi.Send(c, peer, i, out)
						for k, v := range simmpi.Recv[int](c, peer, i) {
							if v != peer+i*k {
								return fmt.Errorf("rank %d message %d: int %d is %d", me, i, k, v)
							}
						}
					default:
						out := make([]float32, n)
						for k := range out {
							out[k] = float32(me*n + k)
						}
						simmpi.Send(c, peer, i, out)
						for k, v := range simmpi.Recv[float32](c, peer, i) {
							if v != float32(peer*n+k) {
								return fmt.Errorf("rank %d message %d: float32 %d is %v", me, i, k, v)
							}
						}
					}
				}
				return nil
			},
			check: wantOK,
		},
		{
			// A frame of one lane may arrive while its receiver waits on the
			// other, from the same peer: a point-to-point frame ahead of a
			// collective's contribution (at the root) or its result (at rank
			// 1). Whoever is looking must set aside what is not its. The
			// sender comes late, so that the receiver's wait is asleep.
			name: "two-kinds-from-one-peer",
			size: 2,
			fn: func(c *simmpi.Comm) error {
				for round := 0; round < 6; round++ {
					me, peer := c.Rank(), 1-c.Rank()
					if me == round%2 {
						time.Sleep(5 * time.Millisecond)
						simmpi.Send(c, peer, round, []float64{float64(round)})
					}
					if err := eq(simmpi.Allreduce(c, simmpi.Sum, 1.0), 2); err != nil {
						return fmt.Errorf("round %d sum: %w", round, err)
					}
					if me != round%2 {
						if err := eq(simmpi.Recv[float64](c, peer, round), float64(round)); err != nil {
							return fmt.Errorf("round %d message: %w", round, err)
						}
					}
				}
				return nil
			},
			check: wantOK,
		},
		{
			// A rank that dies mid-protocol must surface as an error on the
			// survivors (rank-lost on sockets, bounded timeout in-process) —
			// never as a hang.
			name:    "dead-peer-errors",
			size:    2,
			timeout: 500 * time.Millisecond,
			fn: func(c *simmpi.Comm) error {
				if c.Rank() == 1 {
					return nil // exits without ever sending
				}
				simmpi.Recv[float64](c, 1, 0)
				return nil
			},
			check: func(t *testing.T, m *simmpi.Meter, err error) {
				t.Helper()
				if err == nil {
					t.Fatal("surviving rank returned no error")
				}
				if !strings.Contains(err.Error(), "timed out") && !strings.Contains(err.Error(), "rank lost") {
					t.Fatalf("unexpected failure mode: %v", err)
				}
			},
		},
	}
}
