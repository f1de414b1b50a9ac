// Package simmpi is a message-passing runtime that stands in for MPI in the
// FSAIE-Comm reproduction. A Comm is one rank's handle on a world of ranks;
// beneath it sits a pluggable Transport (see transport.go) that moves ordered
// payloads between two ranks on two lanes. The default backend in this
// package runs ranks as goroutines inside one OS process and exchanges
// messages over Go channels; internal/tcpmpi provides the backend where each
// rank is an OS process and messages cross shared-memory rings.
//
// The runtime provides the subset of MPI the paper's solver needs — tagged
// blocking point-to-point messages of float64, float32 or int values (Send
// and Recv) and the collectives Allreduce (Sum or Max), Allgather and
// Barrier, one generic body each over Elem, every one of them blocking —
// and, crucially, it meters every byte that crosses rank boundaries. Every
// collective is one rendezvous, written once in Comm for both backends:
// gather to rank 0, reduce in ascending rank order, send the result down.
// The paper's central communication claim (the FSAIE-Comm pattern extension
// leaves the halo-exchange neighbour sets and volumes untouched) is verified
// against this meter rather than against wall-clock timings. Metering
// happens in Comm, above the Transport, so the counters are identical
// across backends by construction.
package simmpi

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// World is an in-process communication universe of Size ranks: the channel
// backend, and the semantic oracle the TCP backend is conformance-tested
// against. Create one with NewWorld and derive per-rank communicators with
// Comm.
type World struct {
	size    int
	timeout time.Duration
	meter   *Meter
	// lanes[l][dst][src] carries lane l's messages from src to dst; per-pair
	// channels keep message order deterministic per sender as MPI guarantees.
	lanes [2][][]chan Payload
	// states holds each rank's Comm-level state (the self-send loopback
	// queue and the wait counters). Entry r is touched only by rank r's
	// goroutine, so no lock is needed.
	states []rankState
}

// rankState is the per-rank state a Comm needs above the transport: the
// self-send loopback queue and the counters of the rank's waits.
type rankState struct {
	// self carries rank→rank loopback messages (see Send): a
	// bounded FIFO so a runaway self-send loop fails loudly instead of
	// consuming unbounded memory.
	self  chan Payload
	waits Waits // of the rank's own goroutine
}

// selfQueueCap bounds the number of outstanding self-sends per rank. The
// solver protocols post at most a handful before draining.
const selfQueueCap = 256

// laneCap is a channel's buffer per lane. Each point-to-point protocol phase
// posts at most a few messages per pair before draining; a small buffer keeps
// worlds cheap (they are created per solve in the experiment sweeps). A
// collective channel holds at most two: the root is never more than one
// collective ahead of a rank, so a result the rank has not taken yet and the
// next collective's mismatch verdict.
var laneCap = [2]int{P2P: 64, Coll: 2}

func newRankState() rankState {
	return rankState{self: make(chan Payload, selfQueueCap)}
}

// NewWorld creates a world of size ranks. timeout bounds every blocking
// receive and collective; zero means block forever.
func NewWorld(size int, timeout time.Duration) *World {
	if size < 1 {
		panic(fmt.Sprintf("simmpi: world size %d < 1", size))
	}
	w := &World{
		size:    size,
		timeout: timeout,
		states:  make([]rankState, size),
		meter:   NewMeter(size),
	}
	for l := range w.lanes {
		w.lanes[l] = make([][]chan Payload, size)
		for d := range w.lanes[l] {
			w.lanes[l][d] = make([]chan Payload, size)
			for s := range w.lanes[l][d] {
				w.lanes[l][d][s] = make(chan Payload, laneCap[l])
			}
		}
	}
	for r := range w.states {
		w.states[r] = newRankState()
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
	return newComm(&simTransport{w, rank, &st.waits}, w.meter, w.timeout, st)
}

// Run spawns fn on every rank of a fresh world and waits for all of them.
// Panics inside a rank are recovered and returned as errors; the first
// non-nil error wins. The world is returned so callers can inspect the
// traffic meter afterwards.
func Run(size int, timeout time.Duration, fn func(c *Comm) error) (*World, error) {
	w := NewWorld(size, timeout)
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
	waits *Waits
}

func (t *simTransport) Rank() int { return t.rank }
func (t *simTransport) Size() int { return t.w.size }

func (t *simTransport) Send(lane Lane, dst int, p Payload) error {
	t.w.lanes[lane][dst][t.rank] <- p
	return nil
}

func (t *simTransport) Recv(lane Lane, src int) (Payload, error) {
	m, ok := recvWithin(t.w.lanes[lane][t.rank][src], t.w.timeout, t.waits)
	if !ok {
		return Payload{}, fmt.Errorf("timed out receiving from %d (deadlock?)", src)
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
	waits   *Waits // the blocking waits of the rank's goroutine
	// parts is where the rank, as the root of a collective, lines the
	// contributions up (see collective).
	parts []Payload
}

// NewComm wraps a Transport endpoint in a communicator. meter must have the
// world's size (it is this rank's view; in multi-process worlds each process
// meters only its own rank's traffic). timeout bounds self-send loopback
// receives; peer-facing timeouts are the transport's business. Used by
// out-of-package backends; in-process worlds use World.Comm.
func NewComm(t Transport, meter *Meter, timeout time.Duration) *Comm {
	st := newRankState()
	return newComm(t, meter, timeout, &st)
}

func newComm(t Transport, meter *Meter, timeout time.Duration, st *rankState) *Comm {
	return &Comm{t: t, meter: meter, timeout: timeout, st: st, waits: &st.waits}
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

func (c *Comm) checkPeer(peer int) {
	if uint(peer) >= uint(c.Size()) {
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
// self-receive with nothing enqueued can never be satisfied, so it fails
// like any other would-be deadlock.
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
	me := c.Rank()
	if dst == me {
		c.selfPush(message(me, tag, data))
		return
	}
	c.meter.record(me, dst, width[T]()*len(data))
	if err := c.t.Send(P2P, dst, message(me, tag, append([]T(nil), data...))); err != nil {
		panic(fmt.Sprintf("simmpi: rank %d sending tag %d to %d: %v", me, tag, dst, err))
	}
}

// Recv receives the T values of the next message from src, which must carry
// the given tag. Messages from one sender arrive in send order; a mismatched
// tag or element type panics (the solver uses strictly ordered phases, so a
// mismatch is a protocol bug).
func Recv[T Elem](c *Comm, src, tag int) []T {
	c.checkPeer(src)
	var m Payload
	var err error
	if src == c.Rank() {
		m, err = c.selfPop()
	} else {
		m, err = c.t.Recv(P2P, src)
	}
	if err != nil {
		panic(fmt.Sprintf("simmpi: rank %d receiving tag %d from %d: %v", c.Rank(), tag, src, err))
	}
	if m.Tag != tag {
		panic(fmt.Sprintf("simmpi: rank %d expected tag %d from %d, got %d", c.Rank(), tag, src, m.Tag))
	}
	vals, ok := values[T](&m)
	if !ok {
		panic(fmt.Sprintf("simmpi: rank %d expected %s from %d tag %d, got %s",
			c.Rank(), payloadKind(message(0, 0, []T{})), src, tag, payloadKind(m)))
	}
	return vals
}

// SendFloats is Send of float64 values, the spelling benchmark/ calls.
func (c *Comm) SendFloats(dst, tag int, data []float64) { Send(c, dst, tag, data) }

// RecvFloats is Recv of float64 values, the spelling benchmark/ calls.
func (c *Comm) RecvFloats(src, tag int) []float64 { return Recv[float64](c, src, tag) }

// values returns m's T values, and false if m carries values of another
// type. An empty message has no type: it fits every T.
func values[T Elem](m *Payload) ([]T, bool) {
	vals := *slot[T](m)
	return vals, len(vals) > 0 || len(m.F64)+len(m.F32)+len(m.Ints) == 0
}

// payloadKind names the element type of m, populated or typed empty, for
// mismatch panics; "values" where m has none.
func payloadKind(m Payload) string {
	switch {
	case m.F64 != nil:
		return "floats"
	case m.F32 != nil:
		return "float32s"
	case m.Ints != nil:
		return "ints"
	}
	return "values"
}

// Op is what a collective makes of the ranks' contributions. Sum and Max
// are the reductions of Allreduce; the others are Comm's own.
type Op int

const (
	// Sum adds the contributions element by element, from +0 in ascending
	// rank order, so a float sum has the same bits on every backend.
	Sum Op = iota + 1
	// Max keeps the largest contribution element by element: rank 0's value
	// unless a later rank's is greater.
	Max
	gather   // Allgather: the contributions one after another in rank order
	barrier  // Barrier: nothing
	mismatch // the root's answer when the ranks are not in one collective
)

var opNames = [...]string{Sum: "sum", Max: "max", gather: "allgather", barrier: "barrier", mismatch: "mismatch"}

func (o Op) String() string {
	if o < Sum || int(o) >= len(opNames) {
		return fmt.Sprintf("op %d", int(o))
	}
	return opNames[o]
}

// Allreduce returns op (Sum or Max) of every rank's vals, element by
// element, on every rank; each rank contributes as many values. The result
// slice is shared between ranks; callers must not mutate it.
func Allreduce[T Elem](c *Comm, op Op, vals ...T) []T {
	if op != Sum && op != Max {
		panic(fmt.Sprintf("simmpi: Allreduce with %v", op))
	}
	return syncCollective(c, op, vals)
}

// Allgather concatenates every rank's vals in rank order; ranks may
// contribute different counts, none included.
func Allgather[T Elem](c *Comm, vals []T) []T {
	return syncCollective(c, gather, vals)
}

// AllreduceSum is Allreduce with Sum of float64 values, the spelling
// benchmark/ calls.
func (c *Comm) AllreduceSum(vals ...float64) []float64 { return Allreduce(c, Sum, vals...) }

// Barrier blocks until every rank has entered it. It is metered as a
// zero-byte collective call.
func (c *Comm) Barrier() { syncCollective[float64](c, barrier, nil) }

// syncCollective is the collective entry point: it meters one call of 4
// bytes per float32 value and 8 per float64 or int, charged to this rank (a
// flat cost model; the experiments only compare collective counts between
// methods, which are identical by construction), then performs the
// rendezvous.
func syncCollective[T Elem](c *Comm, op Op, vals []T) []T {
	c.meter.recordCollective(c.Rank(), width[T]()*len(vals))
	return collective(c, op, vals)
}

// collective is the one rendezvous of every collective on every backend.
// Each rank other than 0 sends its contribution to rank 0, the root, on the
// collective lane, with the op as the tag, and waits for the result. The
// root receives the contributions in rank order, reduces them (reduce) and
// sends the result down; in a world of one rank it reduces its own. A root
// that finds a rank in another collective — another op, another element
// type or, for a reduction, another count — sends every rank the mismatch
// verdict before it panics, so the whole world fails at once.
func collective[T Elem](c *Comm, op Op, vals []T) []T {
	me, size := c.Rank(), c.Size()
	if me != 0 {
		c.put(0, message(me, int(op), vals), op)
		m := c.take(0, op)
		if Op(m.Tag) == mismatch {
			panic(fmt.Sprintf("simmpi: rank %d in collective %v: collective mismatch, reported by rank 0", me, op))
		}
		return *slot[T](&m)
	}
	if len(c.parts) != size {
		c.parts = make([]Payload, size)
	}
	parts := c.parts
	parts[0] = message(0, int(op), vals)
	for r := 1; r < size; r++ {
		parts[r] = c.take(r, op)
		m := &parts[r]
		got, ok := values[T](m)
		if Op(m.Tag) != op || !ok || (op == Sum || op == Max) && len(got) != len(vals) {
			for d := 1; d < size; d++ {
				// A rank that cannot be told is lost already: it fails anyway.
				_ = c.t.Send(Coll, d, Payload{Tag: int(mismatch)})
			}
			panic(fmt.Sprintf("simmpi: rank 0 in collective %v of %d %s: collective mismatch: rank %d sent %v of %d %s",
				op, len(vals), payloadKind(message(0, 0, []T{})), r, Op(m.Tag), len(m.F64)+len(m.F32)+len(m.Ints), payloadKind(*m)))
		}
	}
	out := reduce[T](op, parts)
	clear(parts)
	for r := 1; r < size; r++ {
		c.put(r, message(0, int(op), out), op)
	}
	return out
}

// reduce combines the contributions of a collective, parts[r] from rank r,
// in ascending rank order, so that a floating-point result has the same
// bits on every backend.
func reduce[T Elem](op Op, parts []Payload) []T {
	var out []T
	switch op {
	case Sum:
		out = make([]T, len(*slot[T](&parts[0])))
		for r := range parts {
			for i, v := range *slot[T](&parts[r]) {
				out[i] += v
			}
		}
	case Max:
		out = append(out, *slot[T](&parts[0])...)
		for r := 1; r < len(parts); r++ {
			for i, v := range *slot[T](&parts[r]) {
				if v > out[i] {
					out[i] = v
				}
			}
		}
	case gather:
		for r := range parts {
			out = append(out, *slot[T](&parts[r])...)
		}
	}
	return out
}

// put and take move one collective message on the collective lane.
func (c *Comm) put(dst int, m Payload, op Op) {
	if err := c.t.Send(Coll, dst, m); err != nil {
		panic(fmt.Sprintf("simmpi: rank %d in collective %v: %v", c.Rank(), op, err))
	}
}

func (c *Comm) take(src int, op Op) Payload {
	m, err := c.t.Recv(Coll, src)
	if err != nil {
		panic(fmt.Sprintf("simmpi: rank %d in collective %v: %v", c.Rank(), op, err))
	}
	return m
}

// Meter accumulates communication statistics. Safe for concurrent use.
type Meter struct {
	mu        sync.Mutex
	size      int
	pairBytes [][]int64
	pairMsgs  [][]int64
	collBytes []int64
	collOps   []int64
}

// NewMeter returns a meter for a world of the given size.
func NewMeter(size int) *Meter {
	m := &Meter{
		size:      size,
		pairBytes: make([][]int64, size),
		pairMsgs:  make([][]int64, size),
		collBytes: make([]int64, size),
		collOps:   make([]int64, size),
	}
	for i := 0; i < size; i++ {
		m.pairBytes[i] = make([]int64, size)
		m.pairMsgs[i] = make([]int64, size)
	}
	return m
}

func (m *Meter) record(src, dst, bytes int) {
	m.mu.Lock()
	m.pairBytes[src][dst] += int64(bytes)
	m.pairMsgs[src][dst]++
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
	for i := range m.pairBytes {
		clear(m.pairBytes[i])
		clear(m.pairMsgs[i])
	}
	clear(m.collBytes)
	clear(m.collOps)
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
	for i := 0; i < m.size; i++ {
		for j := 0; j < m.size; j++ {
			m.pairBytes[i][j] += o.pairBytes[i][j]
			m.pairMsgs[i][j] += o.pairMsgs[i][j]
		}
		m.collBytes[i] += o.collBytes[i]
		m.collOps[i] += o.collOps[i]
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
// entered (each Allreduce/Allgather/Barrier counts once per participating
// rank). The fused-reduction CG claim — one Allreduce per
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
	}
	return s
}

// RankSnapshot returns the counters attributable to one rank: the
// point-to-point traffic it sent and the collectives it entered. All
// metering happens synchronously on the originating rank's goroutine (sends
// and collectives are charged when they are made), so a rank snapshotting
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
	return s
}

// Sub returns the counter-wise difference s − o.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		P2PBytes:        s.P2PBytes - o.P2PBytes,
		P2PMessages:     s.P2PMessages - o.P2PMessages,
		CollectiveCalls: s.CollectiveCalls - o.CollectiveCalls,
		CollectiveBytes: s.CollectiveBytes - o.CollectiveBytes,
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
