package distmat

// Node-aware halo aggregation (Bienz–Gropp–Olson "Node Aware Sparse
// Matrix-Vector Multiplication", NAP-SpMV). With ranks grouped into nodes,
// the flat halo exchange sends one message per boundary-sharing RANK pair;
// most of those messages cross the same pair of NODES and pay the expensive
// inter-node latency each. The node-aware exchange reroutes all cross-node
// traffic through per-node leader ranks in three phases:
//
//	up     each rank concatenates everything it owes ranks on other nodes
//	       into one message to its node leader (cheap, intra-node);
//	inter  each leader combines its members' segments and sends ONE message
//	       per peer node to that node's leader (the only traffic that
//	       crosses the network);
//	down   the leader re-segments the received per-node messages and hands
//	       each member one message with everything it is owed (intra-node).
//
// Same-node halo traffic keeps the flat direct schedule (tagHaloData).
// Received values are bit-identical to the flat exchange — the same float64
// payloads land in the same halo slots, only the envelope changes — so the
// solvers' iterates are unchanged to the last bit. Inter-node bytes are also
// exactly the flat plan's (values are concatenated, never deduplicated);
// the win this file buys is the message-count collapse from rank pairs to
// node pairs, priced by archmodel's hierarchical α–β profiles.
//
// The entire relay schedule is derived locally from the plan's need-count
// matrix (captured for free during BuildHaloPlan's allgather), so enabling
// or disabling node awareness — or re-attaching a different topology to a
// deserialized prepared plan — costs zero additional communication.
//
// Phase ordering is pinned by the runtime's per-sender FIFO + tag-match
// discipline: a member sends its up before its intra directs, and the leader
// receives ups (relay) before draining directs; the leader posts its directs
// before its downs, and members receive directs before their down.
// Leader self-ups and self-downs ride the unmetered loopback queue in the
// same order.

import (
	"fmt"

	"fsaicomm/internal/simmpi"
)

// napSeg is one contiguous run of values copied during relay assembly:
// n values (per column) starting at value offset off of source buffer buf
// (an index into the member-up or inter-in buffer lists).
type napSeg struct{ buf, off, n int }

// napSched is the derived node-aware schedule for one rank. It is pure
// immutable data once built (clones share it); all mutable exchange state
// (buffers) lives on the HaloPlan.
type napSched struct {
	myNode, leaderRank int
	isLeader           bool
	intraSendIDs       []int // same-node direct destinations, ascending
	intraRecvIDs       []int // same-node direct sources, ascending
	crossSendIDs       []int // other-node destinations (served via up), ascending
	crossRecvIDs       []int // other-node sources (served via down), ascending
	upCount            int   // values per column in this rank's up message
	downCount          int   // values per column in this rank's down message
	relay              *napRelay
}

// napRelay is the leader-only relay schedule: how to re-segment member up
// buffers into per-node inter messages, and received inter messages into
// per-member down messages.
type napRelay struct {
	upMembers []int // member ranks with cross sends (incl. the leader), ascending
	upCounts  []int // per upMember: values per column in its up message

	outNodes  []int      // peer nodes this node sends to, ascending
	outCounts []int      // per outNode: values per column in the combined message
	outSegs   [][]napSeg // per outNode: segments into up buffers (buf = upMembers index)

	inNodes  []int // peer nodes this node receives from, ascending
	inCounts []int // per inNode: values per column

	downMembers []int      // member ranks owed cross values, ascending
	downCounts  []int      // per downMember: values per column
	downSegs    [][]napSeg // per downMember: segments into inter buffers (buf = inNodes index)
}

// napActive reports whether this plan routes exchanges through the
// node-aware protocol: node awareness enabled, a real multi-rank-per-node
// topology attached, and the need-count matrix available to derive the
// relay schedule from.
func (p *HaloPlan) napActive() bool {
	return p.nodeAware && !p.topo.Flat() && p.needCounts != nil
}

// napInit lazily derives the node-aware schedule. Confined to the owning
// rank's goroutine, like every other plan mutation.
func (p *HaloPlan) napInit() *napSched {
	if p.nap == nil {
		p.nap = buildNapSched(p)
	}
	return p.nap
}

func buildNapSched(p *HaloPlan) *napSched {
	topo := p.topo
	size := len(p.SendPeers)
	rank := p.rank
	need := func(d, src int) int { return p.needCounts[d*size+src] }

	s := &napSched{
		myNode:     topo.NodeOf(rank),
		leaderRank: topo.Leader(topo.NodeOf(rank)),
	}
	s.isLeader = rank == s.leaderRank
	for _, d := range p.sendPeerIDs {
		if topo.SameNode(rank, d) {
			s.intraSendIDs = append(s.intraSendIDs, d)
		} else {
			s.crossSendIDs = append(s.crossSendIDs, d)
			s.upCount += len(p.SendPeers[d])
		}
	}
	for _, src := range p.recvPeerIDs {
		if topo.SameNode(rank, src) {
			s.intraRecvIDs = append(s.intraRecvIDs, src)
		} else {
			s.crossRecvIDs = append(s.crossRecvIDs, src)
			s.downCount += len(p.RecvPeers[src])
		}
	}
	if !s.isLeader {
		return s
	}

	// Leader relay schedule, derived entirely from the need-count matrix.
	// Nodes are contiguous rank blocks, so every rank's up buffer — cross
	// destinations ascending — is automatically grouped by destination node,
	// and each (member, peer-node) slice of it is one contiguous segment.
	r := &napRelay{}
	rpn := topo.RanksPerNode
	base := s.myNode * rpn
	for m := base; m < base+rpn; m++ {
		up, down := 0, 0
		for q := 0; q < size; q++ {
			if topo.NodeOf(q) == s.myNode {
				continue
			}
			up += need(q, m)   // member m owes rank q this many values
			down += need(m, q) // member m is owed this many values by rank q
		}
		if up > 0 {
			r.upMembers = append(r.upMembers, m)
			r.upCounts = append(r.upCounts, up)
		}
		if down > 0 {
			r.downMembers = append(r.downMembers, m)
			r.downCounts = append(r.downCounts, down)
		}
	}
	for b := 0; b < topo.Nodes; b++ {
		if b == s.myNode {
			continue
		}
		// Outbound: concat, member ascending, of each member's node-b segment.
		var segs []napSeg
		total := 0
		for mi, m := range r.upMembers {
			off, n := 0, 0
			for q := 0; q < size; q++ {
				if topo.NodeOf(q) == s.myNode {
					continue
				}
				if topo.NodeOf(q) < b {
					off += need(q, m)
				} else if topo.NodeOf(q) == b {
					n += need(q, m)
				}
			}
			if n > 0 {
				segs = append(segs, napSeg{buf: mi, off: off, n: n})
				total += n
			}
		}
		if total > 0 {
			r.outNodes = append(r.outNodes, b)
			r.outCounts = append(r.outCounts, total)
			r.outSegs = append(r.outSegs, segs)
		}
		// Inbound: node b's combined message is ordered source rank
		// ascending, then destination member ascending.
		in := 0
		for src := b * rpn; src < (b+1)*rpn; src++ {
			for m := base; m < base+rpn; m++ {
				in += need(m, src)
			}
		}
		if in > 0 {
			r.inNodes = append(r.inNodes, b)
			r.inCounts = append(r.inCounts, in)
		}
	}
	// Down messages: per owed member, concat over all cross sources
	// ascending (= inbound nodes ascending, sources within each ascending)
	// of that source's values for the member, located inside the inter
	// buffers by walking the same src-then-member layout.
	r.downSegs = make([][]napSeg, len(r.downMembers))
	for di, m := range r.downMembers {
		for bi, b := range r.inNodes {
			off := 0
			for src := b * rpn; src < (b+1)*rpn; src++ {
				for d := base; d < base+rpn; d++ {
					n := need(d, src)
					if d == m && n > 0 {
						r.downSegs[di] = append(r.downSegs[di], napSeg{buf: bi, off: off, n: n})
					}
					off += n
				}
			}
		}
	}
	s.relay = r
	return s
}

// relay runs the leader's middle phase of one k-wide exchange: collect the
// members' ups, trade one combined message per peer node, hand out the
// downs. Values pass through in the wire type untouched, so the relay adds
// no rounding.
func (h *halo[V]) relay(c *simmpi.Comm, k int) {
	p := h.p
	r := p.nap.relay
	if h.upVals == nil {
		h.upVals = make([][]V, len(r.upMembers))
		h.inVals = make([][]V, len(r.inNodes))
		h.outBufs = make([][]V, len(r.outNodes))
		h.downBufs = make([][]V, len(r.downMembers))
	}
	// concat copies the segments' k-wide runs of src into dst.
	concat := func(dst []V, segs []napSeg, src [][]V) {
		for _, sg := range segs {
			dst = dst[copy(dst, src[sg.buf][sg.off*k:(sg.off+sg.n)*k]):]
		}
	}
	for i, m := range r.upMembers {
		h.upVals[i] = simmpi.Recv[V](c, m, tagNAPUp)
		if len(h.upVals[i]) != r.upCounts[i]*k {
			panic(fmt.Sprintf("distmat: leader %d up from %d: got %d values, want %d",
				c.Rank(), m, len(h.upVals[i]), r.upCounts[i]*k))
		}
	}
	for bi, b := range r.outNodes {
		buf := resize(&h.outBufs[bi], r.outCounts[bi]*k)
		concat(buf, r.outSegs[bi], h.upVals)
		simmpi.Send(c, p.topo.Leader(b), tagNAPInter, buf)
	}
	for bi, b := range r.inNodes {
		h.inVals[bi] = simmpi.Recv[V](c, p.topo.Leader(b), tagNAPInter)
		if len(h.inVals[bi]) != r.inCounts[bi]*k {
			panic(fmt.Sprintf("distmat: leader %d inter from node %d: got %d values, want %d",
				c.Rank(), b, len(h.inVals[bi]), r.inCounts[bi]*k))
		}
	}
	for di, m := range r.downMembers {
		buf := resize(&h.downBufs[di], r.downCounts[di]*k)
		concat(buf, r.downSegs[di], h.inVals)
		simmpi.Send(c, m, tagNAPDown, buf)
	}
}

// ExchangeCounts returns the per-level message and byte counts ONE k-wide
// halo exchange charges to this rank's meter, under the plan's current
// routing (flat or node-aware). This is the structural quantity the
// hierarchical α–β cost model prices and the metered tests pin: under a
// flat topology everything is inter-node and the totals reproduce the
// historical per-peer schedule exactly; under node-aware routing inter
// messages collapse to one per peer node (leaders only) while inter bytes
// stay exactly the flat plan's.
func (p *HaloPlan) ExchangeCounts(k int) (intraMsgs, intraBytes, interMsgs, interBytes int64) {
	kk := int64(k)
	bpv := int64(8) // bytes per value on the wire
	if p.f32 {
		bpv = 4
	}
	if !p.napActive() {
		for _, d := range p.sendPeerIDs {
			b := bpv * int64(len(p.SendPeers[d])) * kk
			if !p.topo.Flat() && p.topo.SameNode(p.rank, d) {
				intraMsgs++
				intraBytes += b
			} else {
				interMsgs++
				interBytes += b
			}
		}
		return
	}
	s := p.napInit()
	for _, d := range s.intraSendIDs {
		intraMsgs++
		intraBytes += bpv * int64(len(p.SendPeers[d])) * kk
	}
	if s.upCount > 0 && p.rank != s.leaderRank {
		intraMsgs++
		intraBytes += bpv * int64(s.upCount) * kk
	}
	if s.isLeader && s.relay != nil {
		for di, m := range s.relay.downMembers {
			if m == p.rank {
				continue // self-down rides the unmetered loopback
			}
			intraMsgs++
			intraBytes += bpv * int64(s.relay.downCounts[di]) * kk
		}
		for bi := range s.relay.outNodes {
			interMsgs++
			interBytes += bpv * int64(s.relay.outCounts[bi]) * kk
		}
	}
	return
}
