package distmat

// The halo update, written once. A plan's schedule — peers, index lists,
// message counts — does not depend on how wide the values travel, so the
// exchange is generic over the wire type V: float64, or float32 for
// mixed-precision solves, whose iteration vectors stay float64 while each
// halo value is narrowed once at the gather, travels (and is metered) at 4
// bytes and is widened at the scatter. A scalar update is the k-wide one at
// k = 1, so scalar and batched updates are both one post followed by one
// complete, on blocking sends and receives.

import (
	"fmt"

	"fsaicomm/internal/simmpi"
)

// exchanger is what a HaloPlan needs of its exchange state; the two
// implementations are the two instantiations of halo.
type exchanger interface {
	post(c *simmpi.Comm, xExt []float64, k int)
	complete(c *simmpi.Comm, xExt []float64, nLocal, k int)
}

// wire picks the exchange for the plan's width — the only place the
// f32/f64 choice is made — and keeps it, with its buffers, until SetF32
// changes the width.
func (p *HaloPlan) wire() exchanger {
	if p.ex == nil {
		if p.f32 {
			p.ex = &halo[float32]{p: p}
		} else {
			p.ex = &halo[float64]{p: p}
		}
	}
	return p.ex
}

// halo is one plan's exchange state for wire type V: the buffers, lazily
// sized and reused across updates so the per-iteration exchange allocates
// nothing on the send side (simmpi copies payloads on Send). The values
// travel through simmpi's generic Send and Recv at type V.
// Confined to the rank's goroutine, like the plan and the Comm it is used
// with.
type halo[V float32 | float64] struct {
	p *HaloPlan

	sendBuf [][]V // per-peer gather buffers
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

// post is the send half of one k-wide update: one message to every peer.
// Sends are metered as they are made.
func (h *halo[V]) post(c *simmpi.Comm, xExt []float64, k int) {
	p := h.p
	if h.sendBuf == nil {
		h.sendBuf = make([][]V, len(p.SendPeers))
	}
	for _, d := range p.sendPeerIDs {
		list := p.SendPeers[d]
		buf := resize(&h.sendBuf[d], len(list)*k)
		pack(buf, xExt, list, k)
		simmpi.Send(c, d, tagHaloData, buf)
	}
}

// complete is the receive half: it fills the halo slots of xExt (local part
// already in place, nLocal rows of k columns) from one message per peer.
func (h *halo[V]) complete(c *simmpi.Comm, xExt []float64, nLocal, k int) {
	p := h.p
	for _, peer := range p.recvPeerIDs {
		vals := simmpi.Recv[V](c, peer, tagHaloData)
		slots := p.RecvPeers[peer]
		if len(vals) != len(slots)*k {
			panic(fmt.Sprintf("distmat: rank %d halo update from %d: got %d values, want %d (k=%d)",
				c.Rank(), peer, len(vals), len(slots)*k, k))
		}
		unpack(xExt, nLocal, slots, vals, k)
	}
}

// idle reports whether an update of this plan moves nothing, so a product
// may read its input in place: nobody to send to and nobody to receive from.
// An empty halo alone does not say so — rank 0 of a lower-triangular factor
// receives nothing and still owes its sends.
func (p *HaloPlan) idle() bool {
	return len(p.sendPeerIDs) == 0 && len(p.recvPeerIDs) == 0
}

// ExchangeCounts returns the messages and bytes ONE k-wide halo update
// charges to this rank's meter: one message per send peer, carrying that
// peer's list k values wide at the plan's wire width. This is the
// structural quantity the α–β cost model prices and the metered tests pin.
func (p *HaloPlan) ExchangeCounts(k int) (msgs, bytes int64) {
	bpv := int64(8) // bytes per value on the wire
	if p.f32 {
		bpv = 4
	}
	for _, d := range p.sendPeerIDs {
		msgs++
		bytes += bpv * int64(len(p.SendPeers[d])) * int64(k)
	}
	return msgs, bytes
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
// extra messages. Frozen (converged) columns still travel: the
// payload width is fixed at k, which keeps the schedule independent of the
// convergence mask.
func (p *HaloPlan) ExchangeBatch(c *simmpi.Comm, xExt []float64, nLocal, k int) {
	// All sends are posted before any receive is drained; per-pair FIFO
	// channels make that deadlock-free. wire() leaves its exchange in p.ex.
	p.wire().post(c, xExt, k)
	p.ex.complete(c, xExt, nLocal, k)
}
