package distmat

// The halo update, written once. A plan's schedule — peers, index lists,
// node-aware relay segments, message counts — does not depend on how wide
// the values travel, so the exchange is generic over the wire type V:
// float64, or float32 for mixed-precision solves, whose iteration vectors
// stay float64 while each halo value is narrowed once at the gather, travels
// (and is metered) at 4 bytes and is widened at the scatter. A scalar update
// is the k-wide one at k = 1, and the flat schedule is the node-aware one
// with every peer direct, so blocking, overlapped, nonblocking, batched and
// relayed updates are all one post followed by one complete.

import (
	"fmt"

	"fsaicomm/internal/simmpi"
)

// exchanger is what a HaloPlan needs of its exchange state; the two
// implementations are the two instantiations of halo.
type exchanger interface {
	post(c *simmpi.Comm, xExt []float64, k int, async bool)
	complete(c *simmpi.Comm, xExt []float64, nLocal, k int)
}

// wire picks the exchange for the plan's width — the only place the
// f32/f64 choice is made — and keeps it, with its buffers, until SetF32
// changes the width.
func (p *HaloPlan) wire() exchanger {
	if p.ex == nil {
		if p.f32 {
			p.ex = &halo[float32]{
				p:    p,
				send: (*simmpi.Comm).SendFloats32, isend: (*simmpi.Comm).IsendFloats32,
				recv: (*simmpi.Comm).RecvFloats32, irecv: (*simmpi.Comm).IrecvFloats32,
				wait: (*simmpi.Request).Wait32,
			}
		} else {
			p.ex = &halo[float64]{
				p:    p,
				send: (*simmpi.Comm).SendFloats, isend: (*simmpi.Comm).IsendFloats,
				recv: (*simmpi.Comm).RecvFloats, irecv: (*simmpi.Comm).IrecvFloats,
				wait: (*simmpi.Request).Wait,
			}
		}
	}
	return p.ex
}

// halo is one plan's exchange state for wire type V: the point-to-point
// primitives of that width and the buffers, lazily sized and reused across
// updates so the per-iteration exchange allocates nothing on the send side
// (simmpi copies payloads on Send). Confined to the rank's goroutine, like
// the plan and the Comm it is used with.
type halo[V float32 | float64] struct {
	p     *HaloPlan
	send  func(c *simmpi.Comm, dst, tag int, data []V)
	isend func(c *simmpi.Comm, dst, tag int, data []V) *simmpi.Request
	recv  func(c *simmpi.Comm, src, tag int) []V
	irecv func(c *simmpi.Comm, src, tag int) *simmpi.Request
	wait  func(r *simmpi.Request) ([]V, error)

	sendBuf [][]V // per-peer gather buffers
	// recvs are the receives a nonblocking flat post put up ahead of its
	// sends; complete waits on them instead of receiving.
	recvs []*simmpi.Request
	// Node-aware relay workspaces (see nodeaware.go): the up-gather buffer,
	// the leader's combined outbound and per-member down buffers, and the
	// received up/inter payloads. A leader's self-up and self-down ride the
	// no-copy loopback queue, so the payload it scatters IS the buffer it
	// gathered into.
	upBuf             []V
	outBufs, downBufs [][]V
	upVals, inVals    [][]V
}

// resize returns *store with length n, reusing its capacity.
func resize[V any](store *[]V, n int) []V {
	if cap(*store) < n {
		*store = make([]V, n)
	}
	*store = (*store)[:n]
	return *store
}

// pack gathers the k interleaved columns of the listed rows of x into dst,
// converting each value to the wire type, and returns the count written.
func pack[V float32 | float64](dst []V, x []float64, list []int, k int) int {
	if k == 1 {
		for m, li := range list {
			dst[m] = V(x[li])
		}
		return len(list)
	}
	for m, li := range list {
		out := dst[m*k : m*k+k]
		for j, v := range x[li*k : li*k+k] {
			out[j] = V(v)
		}
	}
	return len(list) * k
}

// unpack scatters received values into the listed halo slots of xExt (slot s
// is row nLocal+s), widening each back to float64.
func unpack[V float32 | float64](xExt []float64, nLocal int, slots []int, vals []V, k int) {
	if k == 1 {
		for m, s := range slots {
			xExt[nLocal+s] = float64(vals[m])
		}
		return
	}
	for m, s := range slots {
		out := xExt[(nLocal+s)*k : (nLocal+s)*k+k]
		for j, v := range vals[m*k : m*k+k] {
			out[j] = float64(v)
		}
	}
}

// post is the send half of one k-wide update. Under node-aware routing the
// cross-node values go up to the node leader in one message, ahead of the
// direct sends to same-node peers; under the flat schedule every peer is
// direct. async selects the nonblocking primitives — receives first, so a
// matching send can never block on an unposted receive, in the
// MPI_Irecv/MPI_Isend idiom. The aggregated protocol keeps its receives
// ordered per sender (ups before directs before downs), so there they all
// wait for complete. Metering is charged at post time either way, byte for
// byte the same.
func (h *halo[V]) post(c *simmpi.Comm, xExt []float64, k int, async bool) {
	p := h.p
	put := h.send
	if async {
		// Isend copies the payload at post time, so the buffer is reusable
		// at once and the send handle needs no wait.
		put = func(c *simmpi.Comm, dst, tag int, data []V) { h.isend(c, dst, tag, data) }
	}
	direct := p.sendPeerIDs
	if p.napActive() {
		s := p.napInit()
		direct = s.intraSendIDs
		if s.upCount > 0 {
			buf := resize(&h.upBuf, s.upCount*k)
			o := 0
			for _, d := range s.crossSendIDs {
				o += pack(buf[o:], xExt, p.SendPeers[d], k)
			}
			put(c, s.leaderRank, tagNAPUp, buf)
		}
	} else if async {
		for _, peer := range p.recvPeerIDs {
			h.recvs = append(h.recvs, h.irecv(c, peer, tagHaloData))
		}
	}
	if h.sendBuf == nil {
		h.sendBuf = make([][]V, len(p.SendPeers))
	}
	for _, d := range direct {
		list := p.SendPeers[d]
		buf := resize(&h.sendBuf[d], len(list)*k)
		pack(buf, xExt, list, k)
		put(c, d, tagHaloData, buf)
	}
}

// complete is the receive half: it fills the halo slots of xExt (local part
// already in place, nLocal rows of k columns). A node leader first
// discharges its relay duty; then every rank drains its direct receives and
// finally scatters the one down message holding what other nodes owe it.
func (h *halo[V]) complete(c *simmpi.Comm, xExt []float64, nLocal, k int) {
	p := h.p
	direct := p.recvPeerIDs
	var s *napSched
	if p.napActive() {
		s = p.napInit()
		direct = s.intraRecvIDs
		if s.isLeader && s.relay != nil {
			h.relay(c, k)
		}
	}
	for i, peer := range direct {
		var vals []V
		if len(h.recvs) > 0 {
			var err error
			if vals, err = h.wait(h.recvs[i]); err != nil {
				panic(fmt.Sprintf("distmat: rank %d halo update from %d: %v", c.Rank(), peer, err))
			}
		} else {
			vals = h.recv(c, peer, tagHaloData)
		}
		slots := p.RecvPeers[peer]
		if len(vals) != len(slots)*k {
			panic(fmt.Sprintf("distmat: rank %d halo update from %d: got %d values, want %d",
				c.Rank(), peer, len(vals), len(slots)*k))
		}
		unpack(xExt, nLocal, slots, vals, k)
	}
	h.recvs = h.recvs[:0]
	if s != nil && s.downCount > 0 {
		vals := h.recv(c, s.leaderRank, tagNAPDown)
		if len(vals) != s.downCount*k {
			panic(fmt.Sprintf("distmat: rank %d node-aware down update: got %d values, want %d",
				c.Rank(), len(vals), s.downCount*k))
		}
		for _, src := range s.crossRecvIDs {
			slots := p.RecvPeers[src]
			unpack(xExt, nLocal, slots, vals[:len(slots)*k], k)
			vals = vals[len(slots)*k:]
		}
	}
}

// idle reports whether an update of this plan moves nothing, so a product
// may read its input in place: nobody to send to, nobody to receive from and
// no relay duty. An empty halo alone does not say so — rank 0 of a
// lower-triangular factor receives nothing and still owes its sends.
func (p *HaloPlan) idle() bool {
	return len(p.sendPeerIDs) == 0 && len(p.recvPeerIDs) == 0 && !p.napActive()
}

// Exchange performs one halo update: xExt must have length
// NLocal+len(Halo); its first NLocal entries are the local values (already
// filled by the caller), and Exchange fills the halo slots from peers.
func (p *HaloPlan) Exchange(c *simmpi.Comm, xExt []float64, nLocal int) {
	p.ExchangeBatch(c, xExt, nLocal, 1)
}

// ExchangeBatch performs one k-wide halo update: xExt is the interleaved
// extended block (length (nLocal+halo)·k) with the local part already
// filled; the halo slots are filled from peers. Each peer receives exactly
// one message per update — the same message count as the scalar Exchange —
// carrying len(list)·k values, so batching k right-hand sides costs zero
// extra messages; under node-aware routing that is one message per node
// pair on the inter-node leg. Frozen (converged) columns still travel: the
// payload width is fixed at k, which keeps the schedule independent of the
// convergence mask.
func (p *HaloPlan) ExchangeBatch(c *simmpi.Comm, xExt []float64, nLocal, k int) {
	// All sends are posted before any receive is drained; per-pair FIFO
	// channels make that deadlock-free.
	w := p.wire()
	w.post(c, xExt, k, false)
	w.complete(c, xExt, nLocal, k)
}

// PostSends posts this rank's halo sends from xExt (local values already
// filled by the caller). The overlap schedule calls it before computing
// interior rows so the values travel while local work proceeds.
func (p *HaloPlan) PostSends(c *simmpi.Comm, xExt []float64) {
	p.wire().post(c, xExt, 1, false)
}

// CompleteRecvs drains this rank's halo receives into the halo slots of
// xExt, completing an update started with PostSends.
func (p *HaloPlan) CompleteRecvs(c *simmpi.Comm, xExt []float64, nLocal int) {
	p.wire().complete(c, xExt, nLocal, 1)
}

// StartExchange posts one halo update entirely through the nonblocking
// primitives. The returned handle completes the update; metering is
// identical to PostSends/CompleteRecvs byte for byte, so structural
// communication claims are independent of which schedule a solver uses. One
// exchange may be outstanding per plan at a time, like the send buffers.
func (p *HaloPlan) StartExchange(c *simmpi.Comm, xExt []float64) *ExchangeHandle {
	p.wire().post(c, xExt, 1, true)
	p.async.plan = p
	return &p.async
}

// ExchangeHandle is an in-flight halo update started with StartExchange.
type ExchangeHandle struct{ plan *HaloPlan }

// Complete waits the posted receives and scatters their values into the
// halo slots of xExt, finishing the update.
func (h *ExchangeHandle) Complete(c *simmpi.Comm, xExt []float64, nLocal int) {
	h.plan.wire().complete(c, xExt, nLocal, 1)
}
