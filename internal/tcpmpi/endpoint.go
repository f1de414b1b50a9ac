package tcpmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"fsaicomm/internal/simmpi"
)

// Config shapes a mesh.
type Config struct {
	// Timeout bounds every blocking operation — dials, handshakes, receives,
	// collective waits and sends into a full ring. A dead or silent peer
	// therefore surfaces as an error within roughly one Timeout, never as a
	// hang. Zero means the 30s default; there is deliberately no "block
	// forever" setting.
	Timeout time.Duration
	// Wrap, if set, decorates each rank's transport before the Comm is built
	// on top — the hook the fault-injection tests use.
	Wrap func(rank int, t simmpi.Transport) simmpi.Transport
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

const (
	// sweepEvery is the first pause after which a parked waiter of a mesh of
	// more than two looks at its other peers' rings (see park); the pause
	// doubles up to sweepAtMost while they stay empty.
	sweepEvery  = time.Millisecond
	sweepAtMost = 64 * time.Millisecond
)

// ListenTCP opens a loopback listener on an ephemeral port. Workers call it
// before registering with the launcher so the coordinator can distribute
// real addresses.
func ListenTCP() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// fifo is a queue of decoded messages; its storage is reused once drained.
type fifo[T any] struct {
	q    []T
	next int
}

func (f *fifo[T]) empty() bool { return f.next == len(f.q) }
func (f *fifo[T]) push(v T)    { f.q = append(f.q, v) }
func (f *fifo[T]) pop() T {
	var zero T
	v := f.q[f.next]
	f.q[f.next] = zero
	if f.next++; f.next == len(f.q) {
		f.q, f.next = f.q[:0], 0
	}
	return v
}

// want names what a waiter needs of a connection: a message queued on a
// lane, want(simmpi.P2P) or want(simmpi.Coll), or wantRoom.
type want uint8

const wantRoom want = 2 // room in the outbound ring

// peerConn is one mesh connection: the shared mapping with the ring each way,
// the socket that wakes a sleeper, and what has been taken out of the inbound
// ring but not yet asked for.
type peerConn struct {
	conn net.Conn
	// live is held for reading by every operation that touches the mapping
	// and for writing by Close when it unmaps it; mem is nil from then on.
	live    sync.RWMutex
	mem     []byte
	in, out ring

	// wmu serializes producers: two goroutines may send to the same peer
	// at once, and a frame's pieces must not interleave with another's. It also
	// guards wbuf, the storage every outgoing frame is encoded into, so a
	// steady-state send allocates nothing.
	wmu  sync.Mutex
	wbuf []byte

	// mu guards the lanes' queues, err, draining and back. One goroutine at a time
	// holds the draining role: it alone reads the inbound ring's bytes, the
	// frame assembler and the socket. A waiter that finds the role taken
	// waits on back, which the drainer closes when it comes back.
	mu       sync.Mutex
	lanes    [2]fifo[simmpi.Payload]
	err      error // sticky: the peer is lost
	draining bool
	back     chan struct{}

	asm  frameAsm
	bell [64]byte // doorbell bytes are read here, stale ones several at a time
}

var doorbell = []byte{1}

// Endpoint is one rank's transport: size-1 mesh connections. It implements
// simmpi.Transport.
type Endpoint struct {
	rank, size int
	timeout    time.Duration
	peers      []*peerConn // nil at the endpoint's own index
	closeOnce  sync.Once
}

// hello is what the dialing (higher) rank says first: a magic word and its
// rank. The accepting rank answers with the name of the ring file it made
// (u16 length, then the path); the dialer maps it and acks with one byte,
// and the accepting rank removes the name.
const helloMagic = 0x31525346 // "FSR1"

// Connect wires rank into a full mesh over the given per-rank addresses:
// rank r accepts one connection from every higher rank and dials every lower
// rank, and each connection gets its shared mapping (see hello). addrs[rank]
// must be the address ln listens on.
// Connect owns ln and closes it before returning: once the size−1−rank higher
// ranks are in nobody else has business connecting, and a rank that lives for
// hours should not keep an accepting port open.
func Connect(rank int, ln net.Listener, addrs []string, cfg Config) (*Endpoint, error) {
	defer ln.Close()
	cfg = cfg.withDefaults()
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("tcpmpi: rank %d outside [0,%d)", rank, size)
	}
	e := &Endpoint{
		rank:    rank,
		size:    size,
		timeout: cfg.Timeout,
		peers:   make([]*peerConn, size),
	}
	deadline := time.Now().Add(cfg.Timeout)

	// Accept from higher ranks while dialing lower ones: both directions
	// must progress concurrently or two ranks dialing each other's
	// not-yet-accepting side would deadlock the mesh formation.
	acceptDone := make(chan error, 1)
	go func() {
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
		}
		for i := 0; i < size-1-rank; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptDone <- fmt.Errorf("tcpmpi: rank %d accepting mesh peer: %w", rank, err)
				return
			}
			conn.SetDeadline(deadline)
			peer, mem, err := e.welcome(conn)
			if err != nil {
				conn.Close()
				acceptDone <- fmt.Errorf("tcpmpi: rank %d handshake with mesh peer: %w", rank, err)
				return
			}
			conn.SetDeadline(time.Time{})
			e.peers[peer] = &peerConn{conn: conn, mem: mem, out: ringAt(mem, 0), in: ringAt(mem, 1)}
		}
		acceptDone <- nil
	}()

	var dialErr error
	for q := 0; q < rank && dialErr == nil; q++ {
		conn, err := dialRetry(addrs[q], deadline)
		if err != nil {
			dialErr = fmt.Errorf("tcpmpi: rank %d dialing rank %d at %s: %w", rank, q, addrs[q], err)
			break
		}
		conn.SetDeadline(deadline)
		mem, err := introduce(conn, rank)
		if err != nil {
			conn.Close()
			dialErr = fmt.Errorf("tcpmpi: rank %d handshake with rank %d: %w", rank, q, err)
			break
		}
		conn.SetDeadline(time.Time{})
		e.peers[q] = &peerConn{conn: conn, mem: mem, out: ringAt(mem, 1), in: ringAt(mem, 0)}
	}
	if dialErr != nil {
		ln.Close() // the mesh cannot form any more; do not sit out the accept deadline
	}
	acceptErr := <-acceptDone
	if dialErr != nil || acceptErr != nil {
		e.Close()
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, acceptErr
	}
	return e, nil
}

// welcome is the accepting side of the handshake. The ring file has a name
// from createMapping until this function returns, however it returns.
func (e *Endpoint) welcome(conn net.Conn) (peer int, mem []byte, err error) {
	var hello [8]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, nil, fmt.Errorf("reading hello: %w", err)
	}
	peer = int(binary.LittleEndian.Uint32(hello[4:]))
	if binary.LittleEndian.Uint32(hello[:]) != helloMagic || peer <= e.rank || peer >= e.size || e.peers[peer] != nil {
		return 0, nil, fmt.Errorf("bad hello % x", hello)
	}
	mem, path, err := createMapping()
	if err != nil {
		return 0, nil, err
	}
	defer os.Remove(path)
	msg := binary.LittleEndian.AppendUint16(nil, uint16(len(path)))
	var ack [1]byte
	if _, err = conn.Write(append(msg, path...)); err == nil {
		_, err = io.ReadFull(conn, ack[:])
	}
	if err != nil {
		unmap(mem)
		return 0, nil, fmt.Errorf("rank %d did not map %s: %w", peer, path, err)
	}
	return peer, mem, nil
}

// introduce is the dialing side of the handshake.
func introduce(conn net.Conn, rank int) ([]byte, error) {
	hello := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, helloMagic), uint32(rank))
	if _, err := conn.Write(hello); err != nil {
		return nil, fmt.Errorf("sending hello: %w", err)
	}
	var n [2]byte
	if _, err := io.ReadFull(conn, n[:]); err != nil {
		return nil, fmt.Errorf("reading the ring file's name: %w", err)
	}
	path := make([]byte, binary.LittleEndian.Uint16(n[:]))
	if _, err := io.ReadFull(conn, path); err != nil {
		return nil, fmt.Errorf("reading the ring file's name: %w", err)
	}
	mem, err := openMapping(string(path))
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(doorbell); err != nil {
		unmap(mem)
		return nil, fmt.Errorf("acknowledging the ring file: %w", err)
	}
	return mem, nil
}

func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	// The peer's listener exists before its address is published, so a
	// failed dial is transient (accept backlog); retry with a short pause
	// until the mesh deadline.
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("deadline exceeded")
			}
			return nil, lastErr
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the world size.
func (e *Endpoint) Size() int { return e.size }

// hold takes peer's mapping for the length of one operation.
func (e *Endpoint) hold(peer int) (*peerConn, error) {
	pc := e.peers[peer]
	pc.live.RLock()
	if pc.mem == nil {
		pc.live.RUnlock()
		return nil, fmt.Errorf("%w: rank %d's endpoint is closed", simmpi.ErrRankLost, e.rank)
	}
	return pc, nil
}

// has reports whether pc can give w right now. The caller holds pc.mu.
func (pc *peerConn) has(w want) bool {
	if w != wantRoom {
		return !pc.lanes[w].empty()
	}
	room, err := pc.out.room()
	return room > 0 || err != nil // put reports a corrupt ring
}

// await returns, with pc.mu held, once pc has w. Until then the caller
// drains the inbound ring itself if nobody does, and otherwise waits for the
// one who does to come back: a frame may belong to another lane than the
// one wanted, and whoever holds the role queues it for whoever wants it. Queued messages win over a lost peer, so
// what a rank sent before it went is still delivered.
func (e *Endpoint) await(pc *peerConn, peer int, w want) error {
	var deadline time.Time
	var timer *time.Timer
	pc.mu.Lock()
	for !pc.has(w) {
		if pc.err != nil {
			pc.mu.Unlock()
			return pc.err
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(e.timeout)
		} else if !time.Now().Before(deadline) {
			pc.mu.Unlock()
			return os.ErrDeadlineExceeded
		}
		if !pc.draining {
			pc.draining = true
			pc.mu.Unlock()
			err := e.pump(pc, w, deadline)
			pc.mu.Lock()
			pc.release()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				pc.mu.Unlock()
				return err
			}
			if err != nil && pc.err == nil {
				pc.err = fmt.Errorf("%w: rank %d lost rank %d: %v", simmpi.ErrRankLost, e.rank, peer, err)
			}
			continue
		}
		if pc.back == nil {
			pc.back = make(chan struct{})
		}
		back := pc.back
		if w == wantRoom {
			// The drainer rings nobody for room it does not want itself.
			pc.out.starved.Store(1)
			if pc.has(w) {
				break
			}
		}
		pc.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(time.Until(deadline))
			defer timer.Stop()
		}
		select {
		case <-back:
		case <-timer.C:
		}
		pc.mu.Lock()
	}
	return nil
}

// release gives the draining role back and wakes those who waited for it.
// The caller holds pc.mu.
func (pc *peerConn) release() {
	pc.draining = false
	if pc.back != nil {
		close(pc.back)
		pc.back = nil
	}
}

// pump is the draining role: it moves what the peer has published into the
// queues and returns as soon as something happened that a waiter may have
// been waiting for — a frame queued, room for a caller that wants room, a
// doorbell rung — so that await can look again on everybody's behalf. With
// nothing there it polls as every waiter of the module does (simmpi.Poll)
// and then parks on the socket. In a mesh of more than two every round also
// takes what the other peers have published (serveOthers).
func (e *Endpoint) pump(pc *peerConn, w want, deadline time.Time) error {
	var poll simmpi.Poll
	sweep := sweepEvery
	for {
		frames, moved, err := pc.drain()
		if err != nil || frames > 0 {
			return err
		}
		if w == wantRoom {
			if room, err := pc.out.room(); room > 0 || err != nil {
				return err
			}
		}
		if e.serveOthers(pc) {
			moved = true
		}
		if moved {
			// Somebody is awake and feeding this rank: start over.
			if !time.Now().Before(deadline) {
				return os.ErrDeadlineExceeded
			}
			poll, sweep = simmpi.Poll{}, sweepEvery
			continue
		}
		// A few looks, and the core goes to whoever else can run: then round.
		for i := 0; i < 32 && pc.idle(w); i++ {
		}
		if poll.Again() {
			continue
		}
		rung, err := e.park(pc, w, deadline, &sweep)
		if err != nil || rung {
			return err
		}
		poll = simmpi.Poll{}
	}
}

// idle reports whether a poller has nothing to do: no byte to take and, for
// a caller that wants room, none to use.
func (pc *peerConn) idle(w want) bool {
	if pc.in.tail.Load() != pc.in.head.Load() {
		return false
	}
	return w != wantRoom || pc.out.tail.Load()-pc.out.head.Load() == ringBytes
}

// park sleeps on the socket until the peer rings. The flags go up first and
// the rings are looked at once more after that: the peer publishes and then
// looks at the flag, this side raises the flag and then looks at what is
// published, both with sequentially consistent atomics, so at least one of
// the two sees the other and a wake-up cannot be lost. A byte rung for a
// reason that has passed is harmless: the next park reads it and looks again.
//
// In a mesh of more than two the sleep is cut into slices, *sweep long and
// doubling, and pump looks at the other peers' rings between two of them (see
// serveOthers): their doorbells ring on other sockets than the one this
// waiter sleeps on.
func (e *Endpoint) park(pc *peerConn, w want, deadline time.Time, sweep *time.Duration) (rung bool, err error) {
	pc.in.asleep.Store(1)
	if w == wantRoom {
		pc.out.starved.Store(1)
	}
	if !pc.idle(w) {
		pc.in.asleep.Store(0)
		return false, nil
	}
	until, sliced := deadline, false
	if e.size > 2 {
		if slice := time.Now().Add(*sweep); slice.Before(deadline) {
			until, sliced = slice, true
		}
	}
	pc.conn.SetReadDeadline(until)
	_, err = pc.conn.Read(pc.bell[:])
	pc.in.asleep.Store(0)
	switch {
	case err == nil:
		return true, nil
	case !errors.Is(err, os.ErrDeadlineExceeded):
		// The peer is gone; what it published before it went is still there.
		if _, _, derr := pc.drain(); derr != nil {
			err = derr
		}
		return false, err
	case !sliced:
		return false, err
	}
	*sweep = min(2**sweep, sweepAtMost)
	return false, nil
}

// serveOthers takes what the peers other than pc have published, and reports
// whether there was anything. A waiter owes them that: a rank that sends to
// all its neighbours and then receives from all of them counts on the frames
// being taken off its hands, and with every waiter looking at one ring only,
// three ranks pushing frames larger than a ring around a circle would wait
// for each other for good — or, looking only now and then, move one ring's
// worth per look. Two ranks have no others.
func (e *Endpoint) serveOthers(pc *peerConn) (moved bool) {
	for _, other := range e.peers {
		if other != nil && other != pc && other.sweep() {
			moved = true
		}
	}
	return moved
}

// sweep drains the ring of a peer nobody is waiting on at the moment, unless
// Close is already after its mapping, and reports whether a byte moved.
func (pc *peerConn) sweep() (moved bool) {
	if !pc.live.TryRLock() {
		return false
	}
	defer pc.live.RUnlock()
	if pc.mem == nil || pc.in.tail.Load() == pc.in.head.Load() {
		return false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.draining || pc.err != nil {
		return false
	}
	pc.draining = true
	pc.mu.Unlock()
	_, moved, err := pc.drain()
	pc.mu.Lock()
	pc.release()
	if err != nil {
		pc.err = fmt.Errorf("%w: %v", simmpi.ErrRankLost, err)
	}
	return moved
}

// drain takes every published byte out of the inbound ring, through the
// frame assembler, and queues each frame that completes. It reports how many
// did and whether any byte moved at all. The space is given back piece by
// piece, and a producer that said it is starved is rung. Only the holder of
// the draining role calls it.
func (pc *peerConn) drain() (frames int, moved bool, err error) {
	for {
		a, b, err := pc.in.peek()
		if err != nil || len(a) == 0 {
			return frames, moved, err
		}
		moved = true
		for _, part := range [2][]byte{a, b} {
			for rest := part; len(rest) > 0; {
				used, frame, err := pc.asm.take(rest)
				if err == nil && frame != nil {
					frames++
					err = pc.queue(frame)
				}
				if err != nil {
					return frames, moved, err
				}
				rest = rest[used:]
			}
			pc.in.advance(len(part))
		}
		if wake(pc.in.starved) {
			if _, err := pc.conn.Write(doorbell); err != nil {
				return frames, moved, err
			}
		}
	}
}

// queue decodes a frame onto the queue of its lane.
func (pc *peerConn) queue(frame []byte) error {
	kind := frame[0]
	if kind != kindP2P && kind != kindColl {
		return fmt.Errorf("tcpmpi: frame kind %d", kind)
	}
	p, err := decodeP2P(frame[1:])
	if err != nil {
		return err
	}
	pc.mu.Lock()
	pc.lanes[kind-kindP2P].push(p)
	pc.mu.Unlock()
	return nil
}

// push copies the frame in pc.wbuf into the outbound ring, in as many pieces
// as the ring's room makes of it, and rings the peer if it sleeps. With the
// ring full it does what any waiter does (await): it drains its own inbound
// side, so that two ranks pushing large frames at each other both finish,
// polls, and parks. A peer already known to be lost is not written to: its
// ring would take the bytes without complaint. The caller holds pc.wmu.
func (e *Endpoint) push(pc *peerConn, dst int) error {
	pc.mu.Lock()
	lost := pc.err
	pc.mu.Unlock()
	if lost != nil {
		return lost
	}
	for rest := pc.wbuf; ; {
		n, err := pc.out.put(rest)
		if err == nil && n > 0 && wake(pc.out.asleep) {
			_, err = pc.conn.Write(doorbell)
		}
		if err != nil {
			return fmt.Errorf("%w: rank %d writing to rank %d: %v", simmpi.ErrRankLost, e.rank, dst, err)
		}
		if rest = rest[n:]; len(rest) == 0 {
			return nil
		}
		if n > 0 {
			continue
		}
		if err := e.await(pc, dst, wantRoom); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = fmt.Errorf("%w: rank %d timed out writing to rank %d", simmpi.ErrRankLost, e.rank, dst)
			}
			return err
		}
		pc.mu.Unlock()
	}
}

// Send frames a payload into dst's ring on the given lane. A full ring is
// waited on within the configured timeout; a closed or wedged peer surfaces
// as an ErrRankLost-wrapped error.
func (e *Endpoint) Send(lane simmpi.Lane, dst int, p simmpi.Payload) error {
	pc, err := e.hold(dst)
	if err != nil {
		return err
	}
	defer pc.live.RUnlock()
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	kind := kindP2P
	if lane == simmpi.Coll {
		kind = kindColl
	}
	pc.wbuf = endFrame(appendP2P(beginFrame(pc.wbuf, kind), p))
	return e.push(pc, dst)
}

// Recv returns the next payload from src on the given lane.
func (e *Endpoint) Recv(lane simmpi.Lane, src int) (simmpi.Payload, error) {
	pc, err := e.hold(src)
	if err != nil {
		return simmpi.Payload{}, err
	}
	defer pc.live.RUnlock()
	if err := e.await(pc, src, want(lane)); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("timed out receiving from %d (deadlock?)", src)
		}
		return simmpi.Payload{}, err
	}
	p := pc.lanes[lane].pop()
	pc.mu.Unlock()
	return p, nil
}

// Close tears the mesh down. The sockets go first: that ends every wait of
// this endpoint with an error and shows the peers an EOF, which is
// ErrRankLost to their pending operations. Each mapping is unmapped once the
// operations that hold it have returned; the peer's own mapping of the same
// memory, and what this rank put there, outlive it.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		for _, pc := range e.peers {
			if pc != nil {
				pc.conn.Close()
			}
		}
		for _, pc := range e.peers {
			if pc != nil {
				pc.live.Lock()
				unmap(pc.mem)
				pc.mem = nil
				pc.live.Unlock()
			}
		}
	})
	return nil
}
