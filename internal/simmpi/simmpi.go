// Package simmpi is a message-passing runtime that stands in for MPI in the
// FSAIE-Comm reproduction. A Comm is one rank's handle on a world of ranks;
// beneath it sits a pluggable Transport (see transport.go). The default
// backend in this package runs ranks as goroutines inside one OS process and
// exchanges messages over Go channels; internal/tcpmpi provides the backend
// where each rank is an OS process and messages cross shared-memory rings.
//
// The runtime provides the subset of MPI the paper's solver needs — tagged
// point-to-point messages of float64, float32 or int values (Send, Recv and
// their nonblocking forms Isend and Irecv, one generic body each over Elem),
// the collectives Barrier, Allreduce, Allgather and Bcast, and a nonblocking
// IallreduceSum — and, crucially, it meters every byte that crosses rank
// boundaries. The paper's central
// communication claim (the FSAIE-Comm pattern extension leaves the
// halo-exchange neighbour sets and volumes untouched) is verified against
// this meter rather than against wall-clock timings. Metering happens in
// Comm, above the Transport, so the counters are identical across backends
// by construction.
package simmpi

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// World is an in-process communication universe of Size ranks: the channel
// backend, and the semantic oracle the TCP backend is conformance-tested
// against. Create one with NewWorldTopo and derive per-rank communicators with
// Comm.
type World struct {
	size    int
	timeout time.Duration
	meter   *Meter
	// p2p[dst][src] carries messages from src to dst; per-pair channels keep
	// message order deterministic per sender as MPI guarantees.
	p2p [][]chan Payload
	// Collective rendezvous: every rank sends its contribution to the root
	// goroutine slot and receives the result back.
	collUp   []chan CollPayload
	collDown []chan CollPayload
	// parts is where rank 0, in one collective at a time, lines them up.
	parts []CollPayload
	// states holds each rank's Comm-level state (nonblocking chains and the
	// self-send loopback queue). Entry r is touched only by rank r's
	// goroutine, so no lock is needed.
	states []rankState
}

// rankState is the per-rank state a Comm needs above the transport: the
// tails of the nonblocking-operation chains and the self-send loopback
// queue. Collectives, sends and receives each order independently: chaining
// sends behind receives (or vice versa) would deadlock the
// post-recv-then-send idiom that makes nonblocking halo exchanges useful in
// the first place.
type rankState struct {
	collTail, sendTail, recvTail *op
	// self carries rank→rank loopback messages (see Send): a
	// bounded FIFO so a runaway self-send loop fails loudly instead of
	// consuming unbounded memory.
	self  chan Payload
	waits Waits // of the rank's own goroutine
}

// selfQueueCap bounds the number of outstanding self-sends per rank. The
// solver protocols post at most a handful before draining.
const selfQueueCap = 256

func newRankState() rankState {
	return rankState{self: make(chan Payload, selfQueueCap)}
}

// NewWorldTopo creates a world of size ranks whose meter classifies traffic
// against the given two-level topology (see Topology); the zero topology is
// flat. timeout bounds every blocking receive and collective; zero means
// block forever. An invalid topology panics: a world silently
// misattributing intra vs inter traffic would corrupt every metered claim
// built on it.
func NewWorldTopo(size int, timeout time.Duration, topo Topology) *World {
	if size < 1 {
		panic(fmt.Sprintf("simmpi: world size %d < 1", size))
	}
	if err := topo.Validate(size); err != nil {
		panic(err.Error())
	}
	w := &World{
		size:     size,
		timeout:  timeout,
		meter:    NewMeterTopo(size, topo),
		p2p:      make([][]chan Payload, size),
		collUp:   make([]chan CollPayload, size),
		collDown: make([]chan CollPayload, size),
		parts:    make([]CollPayload, size),
		states:   make([]rankState, size),
	}
	for d := 0; d < size; d++ {
		w.p2p[d] = make([]chan Payload, size)
		for s := 0; s < size; s++ {
			// Each protocol phase posts at most a few messages per pair
			// before draining; a small buffer keeps worlds cheap (they are
			// created per solve in the experiment sweeps).
			w.p2p[d][s] = make(chan Payload, 64)
		}
		w.collUp[d] = make(chan CollPayload, 1)
		w.collDown[d] = make(chan CollPayload, 1)
		w.states[d] = newRankState()
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Meter returns the world's traffic meter.
func (w *World) Meter() *Meter { return w.meter }

// Comm returns the communicator for the given rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("simmpi: rank %d outside [0,%d)", rank, w.size))
	}
	st := &w.states[rank]
	return newComm(&simTransport{w, rank, &st.waits}, &simTransport{w: w, rank: rank}, w.meter, w.timeout, st)
}

// Run spawns fn on every rank of a fresh world and waits for all of them.
// Panics inside a rank are recovered and returned as errors; the first
// non-nil error wins. The world is returned so callers can inspect the
// traffic meter afterwards.
func Run(size int, timeout time.Duration, fn func(c *Comm) error) (*World, error) {
	return RunTopo(size, timeout, Topology{}, fn)
}

// RunTopo is Run on a world with the given topology attached (see
// NewWorldTopo).
func RunTopo(size int, timeout time.Duration, topo Topology, fn func(c *Comm) error) (*World, error) {
	w := NewWorldTopo(size, timeout, topo)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("simmpi: rank %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return w, err
		}
	}
	return w, nil
}

// simTransport is the channel backend: one rank's view of a World.
type simTransport struct {
	w     *World
	rank  int
	waits *Waits // nil on the view of a rank's background operations (Comm.bg)
}

func (t *simTransport) Rank() int { return t.rank }
func (t *simTransport) Size() int { return t.w.size }

func (t *simTransport) Send(dst int, p Payload) error {
	t.w.p2p[dst][t.rank] <- p
	return nil
}

func (t *simTransport) Recv(src int) (Payload, error) {
	m, ok := recvWithin(t.w.p2p[t.rank][src], t.w.timeout, t.waits)
	if !ok {
		return Payload{}, fmt.Errorf("timed out receiving from %d (deadlock?)", src)
	}
	return m, nil
}

// Collective performs a gather-to-root / broadcast rendezvous. All ranks
// must call the same op in the same order; op mismatches are errors.
func (t *simTransport) Collective(contrib CollPayload) (CollPayload, error) {
	w := t.w
	op := contrib.Op
	if t.rank == 0 {
		parts := w.parts
		parts[0] = contrib
		for r := 1; r < w.size; r++ {
			m, err := t.collRecv(w.collUp[r], op, r)
			if err != nil {
				return CollPayload{}, err
			}
			parts[r] = m
		}
		result, err := Reduce(op, parts)
		if err != nil {
			return CollPayload{}, err
		}
		for r := 1; r < w.size; r++ {
			w.collDown[r] <- result
		}
		return result, nil
	}
	w.collUp[t.rank] <- contrib
	return t.collRecv(w.collDown[t.rank], op, 0)
}

func (t *simTransport) collRecv(ch chan CollPayload, op string, from int) (CollPayload, error) {
	m, ok := recvWithin(ch, t.w.timeout, t.waits)
	if !ok {
		return CollPayload{}, fmt.Errorf("timed out in collective %q waiting for rank %d", op, from)
	}
	if m.Op != op {
		return CollPayload{}, fmt.Errorf("collective mismatch: in %q, rank %d sent %q", op, from, m.Op)
	}
	return m, nil
}

func (t *simTransport) Close() error { return nil }

// Comm is one rank's handle on a world. A Comm is confined to its rank's
// goroutine; distinct Comms may be used concurrently. All metering happens
// here, above the Transport, so the meters of the channel and ring
// backends agree by construction.
type Comm struct {
	t       Transport
	meter   *Meter
	timeout time.Duration
	st      *rankState
	// waits counts the blocking waits of the rank's goroutine; its background
	// operations run beside it, through bg, and count none (bg.waits is nil).
	waits *Waits
	bg    *Comm
}

// NewComm wraps a Transport endpoint in a communicator. meter must have the
// world's size (it is this rank's view; in multi-process worlds each process
// meters only its own rank's traffic). timeout bounds self-send loopback
// receives; peer-facing timeouts are the transport's business. Used by
// out-of-package backends; in-process worlds use World.Comm.
func NewComm(t Transport, meter *Meter, timeout time.Duration) *Comm {
	st := newRankState()
	return newComm(t, t, meter, timeout, &st)
}

func newComm(t, bg Transport, meter *Meter, timeout time.Duration, st *rankState) *Comm {
	return &Comm{t: t, meter: meter, timeout: timeout, st: st, waits: &st.waits,
		bg: &Comm{t: bg, meter: meter, timeout: timeout, st: st}}
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.t.Rank() }

// Size returns the world size.
func (c *Comm) Size() int { return c.t.Size() }

// Meter returns the traffic meter (shared by all ranks of an in-process
// world; per-process in multi-process worlds).
func (c *Comm) Meter() *Meter { return c.meter }

// Waits tells how this rank's blocking waits ended: who came first, no meter.
func (c *Comm) Waits() Waits { return *c.waits }

// Topology returns the two-level topology this communicator's meter
// classifies traffic against; the zero Topology when none was declared. The
// meter is the single source of truth so the node-aware halo plans and the
// intra/inter counters can never disagree about who shares a node.
func (c *Comm) Topology() Topology { return c.meter.Topology() }

func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= c.Size() {
		panic(fmt.Sprintf("simmpi: rank %d addressed invalid peer %d", c.Rank(), peer))
	}
}

// selfPush enqueues a rank→rank loopback message. The payload is NOT
// copied: self-delivery is defined as handing the receiver the sender's
// backing array (both live in the same goroutine's address space, and the
// solver protocols never mutate a sent buffer before its matching receive).
func (c *Comm) selfPush(p Payload) {
	select {
	case c.st.self <- p:
	default:
		panic(fmt.Sprintf("simmpi: rank %d exceeded %d outstanding self-sends", c.Rank(), selfQueueCap))
	}
}

// selfPop dequeues the next loopback message, bounded by the timeout: a
// self-receive with nothing enqueued (and no nonblocking self-send pending)
// can never be satisfied, so it fails like any other would-be deadlock.
func (c *Comm) selfPop() (Payload, error) {
	m, ok := recvWithin(c.st.self, c.timeout, c.waits)
	if !ok {
		return Payload{}, fmt.Errorf("timed out on self-receive (nothing self-sent?)")
	}
	return m, nil
}

// Elem is what a point-to-point message carries: float64, float32 (the
// half-width halo values of mixed-precision solves) or int values.
type Elem interface{ float64 | float32 | int }

// slot is the field of p that carries T values (see Payload).
func slot[T Elem](p *Payload) *[]T {
	if s, ok := any(&p.F64).(*[]T); ok {
		return s
	}
	if s, ok := any(&p.F32).(*[]T); ok {
		return s
	}
	return any(&p.Ints).(*[]T)
}

// width is the metered size of one T: 4 bytes for a float32, 8 for a float64
// and for an int, which travels as 8 bytes on every platform.
func width[T Elem]() int {
	if _, ok := any(T(0)).(float32); ok {
		return 4
	}
	return 8
}

// message is the payload carrying data from src.
func message[T Elem](src, tag int, data []T) Payload {
	p := Payload{Src: src, Tag: tag}
	*slot[T](&p) = data
	return p
}

// Send sends a copy of data to dst with the given tag, metered at 4 bytes per
// float32 and 8 per float64 or int. A send to the rank itself is a defined
// no-copy loopback: the receiver gets data's backing array directly, no
// bytes are metered (nothing crosses a rank boundary), and no transport is
// involved — so halo plans and collectives built on top need no self
// special-casing on any backend.
func Send[T Elem](c *Comm, dst, tag int, data []T) {
	c.checkPeer(dst)
	c.drain(&c.st.sendTail)
	c.deliver(dst, outgoing(c, dst, tag, data))
}

// outgoing is the message that sends data to dst: a copy, metered now, or
// for the loopback data itself, unmetered.
func outgoing[T Elem](c *Comm, dst, tag int, data []T) Payload {
	if dst != c.Rank() {
		c.meter.record(c.Rank(), dst, width[T]()*len(data))
		data = append([]T(nil), data...)
	}
	return message(c.Rank(), tag, data)
}

// deliver hands m to the loopback queue or to the transport.
func (c *Comm) deliver(dst int, m Payload) {
	if dst == c.Rank() {
		c.selfPush(m)
		return
	}
	if err := c.t.Send(dst, m); err != nil {
		panic(fmt.Sprintf("simmpi: rank %d sending tag %d to %d: %v", c.Rank(), m.Tag, dst, err))
	}
}

// Recv receives the T values of the next message from src, which must carry
// the given tag. Messages from one sender arrive in send order; a mismatched
// tag or element type panics (the solver uses strictly ordered phases, so a
// mismatch is a protocol bug).
func Recv[T Elem](c *Comm, src, tag int) []T {
	c.drain(&c.st.recvTail)
	return recv[T](c, src, tag)
}

// SendFloats is Send of float64 values, the spelling benchmark/ calls.
func (c *Comm) SendFloats(dst, tag int, data []float64) { Send(c, dst, tag, data) }

// RecvFloats is Recv of float64 values, the spelling benchmark/ calls.
func (c *Comm) RecvFloats(src, tag int) []float64 { return Recv[float64](c, src, tag) }

// recv takes the next message from src, off the loopback queue or the
// transport, and returns its T values: the body of Recv and of Irecv's
// background operation.
func recv[T Elem](c *Comm, src, tag int) []T {
	c.checkPeer(src)
	var m Payload
	var err error
	if src == c.Rank() {
		m, err = c.selfPop()
	} else {
		m, err = c.t.Recv(src)
	}
	if err != nil {
		panic(fmt.Sprintf("simmpi: rank %d receiving tag %d from %d: %v", c.Rank(), tag, src, err))
	}
	if m.Tag != tag {
		panic(fmt.Sprintf("simmpi: rank %d expected tag %d from %d, got %d", c.Rank(), tag, src, m.Tag))
	}
	vals := *slot[T](&m)
	if vals == nil && (m.F64 != nil || m.F32 != nil || m.Ints != nil) {
		panic(fmt.Sprintf("simmpi: rank %d expected %s from %d tag %d, got %s",
			c.Rank(), payloadKind(message(0, 0, []T{})), src, tag, payloadKind(m)))
	}
	return vals
}

// payloadKind names the populated slice of a non-empty payload for
// mismatch panics.
func payloadKind(m Payload) string {
	switch {
	case m.F64 != nil:
		return "floats"
	case m.F32 != nil:
		return "float32s"
	default:
		return "ints"
	}
}

// Barrier blocks until every rank has entered it. It is metered as a
// zero-byte collective call.
func (c *Comm) Barrier() {
	c.meterCollective(0)
	c.syncCollective("barrier", CollPayload{})
}

// AllreduceSum returns the element-wise sum of vals over all ranks.
// The result slice is shared between ranks; callers must not mutate it.
func (c *Comm) AllreduceSum(vals ...float64) []float64 {
	c.meterCollective(8 * len(vals))
	return c.syncCollective("allreduce-sum", CollPayload{F64: vals}).F64
}

// AllreduceMax returns the element-wise max of vals over all ranks.
func (c *Comm) AllreduceMax(vals ...float64) []float64 {
	c.meterCollective(8 * len(vals))
	return c.syncCollective("allreduce-max", CollPayload{F64: vals}).F64
}

// AllreduceMin returns the element-wise min of vals over all ranks.
func (c *Comm) AllreduceMin(vals ...float64) []float64 {
	c.meterCollective(8 * len(vals))
	return c.syncCollective("allreduce-min", CollPayload{F64: vals}).F64
}

// AllreduceSumInt64 returns the element-wise sum of vals over all ranks.
func (c *Comm) AllreduceSumInt64(vals ...int64) []int64 {
	c.meterCollective(8 * len(vals))
	return c.syncCollective("allreduce-sum-i64", CollPayload{I64: vals}).I64
}

// AllreduceMaxInt64 returns the element-wise max of vals over all ranks.
func (c *Comm) AllreduceMaxInt64(vals ...int64) []int64 {
	c.meterCollective(8 * len(vals))
	return c.syncCollective("allreduce-max-i64", CollPayload{I64: vals}).I64
}

// AllgatherInt64 concatenates every rank's vals in rank order.
func (c *Comm) AllgatherInt64(vals []int64) []int64 {
	c.meterCollective(8 * len(vals))
	return c.syncCollective("allgather-i64", CollPayload{I64: vals}).I64
}

// AllgatherFloats concatenates every rank's vals in rank order.
func (c *Comm) AllgatherFloats(vals []float64) []float64 {
	c.meterCollective(8 * len(vals))
	return c.syncCollective("allgather-f64", CollPayload{F64: vals}).F64
}

// AllgatherInt concatenates every rank's vals in rank order.
func (c *Comm) AllgatherInt(vals []int) []int {
	c.meterCollective(8 * len(vals))
	return c.syncCollective("allgather-int", CollPayload{Ints: vals}).Ints
}

// BcastFloats distributes root's vals to every rank. Non-root callers pass
// their (ignored) local slice; the broadcast value is returned everywhere.
func (c *Comm) BcastFloats(root int, vals []float64) []float64 {
	if root != 0 {
		// The rendezvous always reduces at rank 0; rotate via a send.
		panic("simmpi: BcastFloats currently supports root 0 only")
	}
	bytes := 0
	if c.Rank() == root {
		// Only the root contributes payload; every rank still enters the
		// collective, so every rank is charged a call.
		bytes = 8 * len(vals)
	}
	c.meterCollective(bytes)
	return c.syncCollective("bcast", CollPayload{F64: vals}).F64
}

// meterCollective charges a collective's payload as size-1 point-to-point
// messages from this rank (a flat cost model; the experiments only compare
// collective counts between methods, which are identical by construction).
func (c *Comm) meterCollective(bytes int) {
	c.meter.recordCollective(c.Rank(), bytes)
}

// syncCollective is the blocking-collective entry point: it first waits out
// this rank's outstanding nonblocking collectives so blocking and
// nonblocking operations keep a single per-rank order (as MPI requires of
// mixed collective streams), then performs the rendezvous.
func (c *Comm) syncCollective(op string, contrib CollPayload) CollPayload {
	c.drain(&c.st.collTail)
	return c.collective(op, contrib)
}

func (c *Comm) collective(op string, contrib CollPayload) CollPayload {
	contrib.Op = op
	out, err := c.t.Collective(contrib)
	if err != nil {
		panic(fmt.Sprintf("simmpi: rank %d in collective %q: %v", c.Rank(), op, err))
	}
	return out
}

// ---- Nonblocking operations ----
//
// IallreduceSum, Isend and Irecv return immediately with a Request handle;
// the operation itself runs on a background goroutine. Each rank keeps three
// FIFO chains — collectives, sends, receives — so outstanding operations of
// one kind complete in post order (matching the per-sender ordering of Send
// and Recv), while the three kinds stay independent: posting a receive
// before the matching send, the whole point of nonblocking halo exchanges,
// cannot self-deadlock. Metering is charged at post time, identically to the
// blocking operations, so metered structural claims hold regardless of which
// flavor a solver uses.

// ErrWaited is wrapped by Request.Wait when a handle is waited twice.
var ErrWaited = fmt.Errorf("simmpi: request already waited")

// op is the untyped part of a nonblocking operation, all a chain waits on:
// the background goroutine publishes its result (or recovered panic) before
// closing done, so a waiter observes it race-free.
type op struct {
	kind     string
	done     chan struct{}
	waits    *Waits // of the rank that posted it
	panicVal any
	waited   bool
}

// Request is the wait handle of a nonblocking operation whose result is T
// values. A Request is confined to the rank goroutine that posted it.
type Request[T Elem] struct {
	op
	vals []T
}

// Wait blocks until the operation completes and returns its values (the
// reduced vector for IallreduceSum, the received values for Irecv, nil for
// Isend). Waiting a handle twice returns an error wrapping ErrWaited instead
// of deadlocking. A panic inside the operation (timeout, protocol mismatch)
// is re-raised in the waiting goroutine, where the runtime's per-rank
// recovery can observe it.
func (r *Request[T]) Wait() ([]T, error) {
	if r.waited {
		return nil, fmt.Errorf("%w: %s", ErrWaited, r.kind)
	}
	r.waited = true
	recvWithin(r.done, 0, r.waits)
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	return r.vals, nil
}

// drain waits for the tail of a chain without consuming its handle (the
// poster may still Wait it). Called only from the owning rank's goroutine.
func (c *Comm) drain(tail **op) {
	if t := *tail; t != nil {
		recvWithin(t.done, 0, c.waits)
	}
}

// Quiesce waits for every outstanding nonblocking chain on this rank —
// sends, receives and collectives — to finish executing. An in-process
// world never needs it (chain goroutines outlive the rank closures), but a
// rank that owns its transport's lifetime must quiesce before tearing it
// down: the solver's final iteration may have posted an async halo send a
// peer is still waiting on, and exiting the process (or closing the
// endpoint) first would turn that peer's receive into a spurious rank-lost
// failure. Chain entries that panicked are already captured into their
// handles; Quiesce only waits, it never re-raises.
func (c *Comm) Quiesce() {
	c.drain(&c.st.sendTail)
	c.drain(&c.st.recvTail)
	c.drain(&c.st.collTail)
}

// post enqueues fn on the chain whose tail is *tail and returns its
// Request. fn runs on a background goroutine after the previous chain
// entry completes; its panics are captured into the handle.
func post[T Elem](c *Comm, kind string, tail **op, fn func() []T) *Request[T] {
	prev := *tail
	r := &Request[T]{op: op{kind: kind, done: make(chan struct{}), waits: c.waits}}
	*tail = &r.op
	go func() {
		defer close(r.done)
		defer func() {
			if p := recover(); p != nil {
				r.panicVal = p
			}
		}()
		if prev != nil {
			recvWithin(prev.done, 0, nil)
			// A failed predecessor poisons the chain: executing after it
			// would desynchronize this rank's operation order against its
			// peers, so surface the same failure here.
			if prev.panicVal != nil {
				panic(prev.panicVal)
			}
		}
		r.vals = fn()
	}()
	return r
}

// IallreduceSum posts the element-wise sum reduction of vals over all ranks
// and returns immediately; Wait yields the reduced vector. Metered at post
// time exactly like AllreduceSum. All ranks must post (or call) matching
// collectives in the same order; blocking collectives issued while
// nonblocking ones are outstanding wait for them first.
func (c *Comm) IallreduceSum(vals ...float64) *Request[float64] {
	c.meterCollective(8 * len(vals))
	payload := append([]float64(nil), vals...)
	return post(c, "iallreduce-sum", &c.st.collTail, func() []float64 {
		return c.bg.collective("allreduce-sum", CollPayload{F64: payload}).F64
	})
}

// Isend posts a copy of data to dst with the given tag and returns
// immediately; Wait yields (nil, nil) once the payload is handed to the
// transport. Metered at post time exactly like Send, so the per-pair byte
// and message counts are independent of which flavor is used. Posted
// self-sends enter the loopback queue in chain order, without copying.
func Isend[T Elem](c *Comm, dst, tag int, data []T) *Request[T] {
	c.checkPeer(dst)
	m := outgoing(c, dst, tag, data)
	return post(c, "isend", &c.st.sendTail, func() []T {
		c.deliver(dst, m)
		return nil
	})
}

// Irecv posts a receive for T values from src with the given tag; Wait
// yields the values. Outstanding receives complete in post order, so the
// per-sender FIFO delivery of Recv is preserved.
func Irecv[T Elem](c *Comm, src, tag int) *Request[T] {
	c.checkPeer(src)
	return post(c, "irecv", &c.st.recvTail, func() []T { return recv[T](c.bg, src, tag) })
}

// Meter accumulates communication statistics. Safe for concurrent use.
// Every point-to-point message is additionally classified against the
// meter's Topology as intra-node (sender and receiver share a node) or
// inter-node; under a flat topology nothing can be intra-node, so the
// historical counters keep their exact meaning and every pre-topology caller
// reads its traffic as "all network".
type Meter struct {
	mu        sync.Mutex
	topo      Topology
	size      int
	pairBytes [][]int64
	pairMsgs  [][]int64
	collBytes []int64
	collOps   []int64
	// Per-source-rank intra/inter splits. Full pair matrices already exist
	// above; these are the cheap per-level rollups the cost model and the
	// /metrics endpoint read.
	intraBytes []int64
	intraMsgs  []int64
	interBytes []int64
	interMsgs  []int64
}

// NewMeterTopo returns a meter for the given world size that classifies
// point-to-point traffic against topo. An invalid topology panics.
func NewMeterTopo(size int, topo Topology) *Meter {
	if err := topo.Validate(size); err != nil {
		panic(err.Error())
	}
	m := &Meter{
		topo:       topo,
		size:       size,
		pairBytes:  make([][]int64, size),
		pairMsgs:   make([][]int64, size),
		collBytes:  make([]int64, size),
		collOps:    make([]int64, size),
		intraBytes: make([]int64, size),
		intraMsgs:  make([]int64, size),
		interBytes: make([]int64, size),
		interMsgs:  make([]int64, size),
	}
	for i := 0; i < size; i++ {
		m.pairBytes[i] = make([]int64, size)
		m.pairMsgs[i] = make([]int64, size)
	}
	return m
}

// Topology returns the topology the meter classifies traffic against.
func (m *Meter) Topology() Topology {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.topo
}

func (m *Meter) record(src, dst, bytes int) {
	m.mu.Lock()
	m.pairBytes[src][dst] += int64(bytes)
	m.pairMsgs[src][dst]++
	if m.topo.SameNode(src, dst) {
		m.intraBytes[src] += int64(bytes)
		m.intraMsgs[src]++
	} else {
		m.interBytes[src] += int64(bytes)
		m.interMsgs[src]++
	}
	m.mu.Unlock()
}

func (m *Meter) recordCollective(rank, bytes int) {
	m.mu.Lock()
	m.collBytes[rank] += int64(bytes)
	m.collOps[rank]++
	m.mu.Unlock()
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < m.size; i++ {
		for j := 0; j < m.size; j++ {
			m.pairBytes[i][j] = 0
			m.pairMsgs[i][j] = 0
		}
		m.collBytes[i] = 0
		m.collOps[i] = 0
		m.intraBytes[i] = 0
		m.intraMsgs[i] = 0
		m.interBytes[i] = 0
		m.interMsgs[i] = 0
	}
}

// Merge adds o's counters into m. The multi-process launcher uses it to
// fold per-worker meters (each holding one rank's row) into a world view.
func (m *Meter) Merge(o *Meter) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if o.size != m.size {
		panic(fmt.Sprintf("simmpi: merging meter of size %d into %d", o.size, m.size))
	}
	if o.topo != m.topo {
		panic(fmt.Sprintf("simmpi: merging meter with topology %+v into %+v", o.topo, m.topo))
	}
	for i := 0; i < m.size; i++ {
		for j := 0; j < m.size; j++ {
			m.pairBytes[i][j] += o.pairBytes[i][j]
			m.pairMsgs[i][j] += o.pairMsgs[i][j]
		}
		m.collBytes[i] += o.collBytes[i]
		m.collOps[i] += o.collOps[i]
		m.intraBytes[i] += o.intraBytes[i]
		m.intraMsgs[i] += o.intraMsgs[i]
		m.interBytes[i] += o.interBytes[i]
		m.interMsgs[i] += o.interMsgs[i]
	}
}

// TotalP2PBytes returns the total point-to-point bytes sent.
func (m *Meter) TotalP2PBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s int64
	for i := range m.pairBytes {
		for _, b := range m.pairBytes[i] {
			s += b
		}
	}
	return s
}

// PairBytes returns the bytes sent from src to dst.
func (m *Meter) PairBytes(src, dst int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pairBytes[src][dst]
}

// CollectiveBytes returns the collective payload bytes charged to rank.
func (m *Meter) CollectiveBytes(rank int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.collBytes[rank]
}

// CollectiveCalls returns the number of collective operations rank has
// entered (each Allreduce/Allgather/Barrier/Bcast counts once per
// participating rank). The fused-reduction CG claim — one Allreduce per
// iteration instead of three — is asserted against this counter.
func (m *Meter) CollectiveCalls(rank int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.collOps[rank]
}

// Snapshot is a point-in-time copy of the meter's aggregate counters.
// Diffing two snapshots (Sub) isolates the traffic of a program phase —
// e.g. collectives per CG iteration — without resetting the meter.
type Snapshot struct {
	P2PBytes, P2PMessages            int64
	CollectiveCalls, CollectiveBytes int64
	// The topology split of the point-to-point totals above:
	// P2PBytes = IntraP2PBytes + InterP2PBytes and likewise for messages.
	// Under a flat topology the intra pair is always zero.
	IntraP2PBytes, IntraP2PMessages int64
	InterP2PBytes, InterP2PMessages int64
}

// Snapshot returns the current aggregate counters.
func (m *Meter) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s Snapshot
	for i := 0; i < m.size; i++ {
		for j := 0; j < m.size; j++ {
			s.P2PBytes += m.pairBytes[i][j]
			s.P2PMessages += m.pairMsgs[i][j]
		}
		s.CollectiveCalls += m.collOps[i]
		s.CollectiveBytes += m.collBytes[i]
		s.IntraP2PBytes += m.intraBytes[i]
		s.IntraP2PMessages += m.intraMsgs[i]
		s.InterP2PBytes += m.interBytes[i]
		s.InterP2PMessages += m.interMsgs[i]
	}
	return s
}

// RankSnapshot returns the counters attributable to one rank: the
// point-to-point traffic it sent and the collectives it entered. All
// metering happens synchronously on the originating rank's goroutine (sends
// and collective posts are charged at post time), so a rank snapshotting
// itself between program phases sees exactly its own traffic, and the sum of
// all rank snapshots equals the aggregate Snapshot. Allocation-free, so
// solvers can call it every iteration.
func (m *Meter) RankSnapshot(rank int) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s Snapshot
	for _, b := range m.pairBytes[rank] {
		s.P2PBytes += b
	}
	for _, n := range m.pairMsgs[rank] {
		s.P2PMessages += n
	}
	s.CollectiveCalls = m.collOps[rank]
	s.CollectiveBytes = m.collBytes[rank]
	s.IntraP2PBytes = m.intraBytes[rank]
	s.IntraP2PMessages = m.intraMsgs[rank]
	s.InterP2PBytes = m.interBytes[rank]
	s.InterP2PMessages = m.interMsgs[rank]
	return s
}

// Sub returns the counter-wise difference s − o.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		P2PBytes:         s.P2PBytes - o.P2PBytes,
		P2PMessages:      s.P2PMessages - o.P2PMessages,
		CollectiveCalls:  s.CollectiveCalls - o.CollectiveCalls,
		CollectiveBytes:  s.CollectiveBytes - o.CollectiveBytes,
		IntraP2PBytes:    s.IntraP2PBytes - o.IntraP2PBytes,
		IntraP2PMessages: s.IntraP2PMessages - o.IntraP2PMessages,
		InterP2PBytes:    s.InterP2PBytes - o.InterP2PBytes,
		InterP2PMessages: s.InterP2PMessages - o.InterP2PMessages,
	}
}

// NeighborSets returns, for every rank, the sorted set of peers it sent at
// least one point-to-point message to. This is the communication scheme the
// paper requires FSAIE-Comm to leave unchanged.
func (m *Meter) NeighborSets() [][]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]int, m.size)
	for s := 0; s < m.size; s++ {
		for d := 0; d < m.size; d++ {
			if m.pairMsgs[s][d] > 0 {
				out[s] = append(out[s], d)
			}
		}
		sort.Ints(out[s])
	}
	return out
}

// MaxRankP2PBytes returns the largest per-rank outgoing byte count, the
// quantity the cost model's max-over-ranks communication term uses.
func (m *Meter) MaxRankP2PBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max int64
	for s := 0; s < m.size; s++ {
		var b int64
		for d := 0; d < m.size; d++ {
			b += m.pairBytes[s][d]
		}
		if b > max {
			max = b
		}
	}
	return max
}
