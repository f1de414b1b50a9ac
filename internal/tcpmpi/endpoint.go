package tcpmpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"fsaicomm/internal/simmpi"
)

// Config shapes a socket mesh.
type Config struct {
	// Network selects the socket family: "tcp" (loopback, the default) or
	// "unix" (domain sockets in a temporary directory).
	Network string
	// Timeout bounds every blocking operation — dials, handshakes, receives,
	// collective waits and writes. A dead or silent peer therefore surfaces
	// as an error within roughly one Timeout, never as a hang. Zero means
	// the 30s default; there is deliberately no "block forever" setting.
	Timeout time.Duration
	// Wrap, if set, decorates each rank's transport before the Comm is built
	// on top — the hook the fault-injection tests use.
	Wrap func(rank int, t simmpi.Transport) simmpi.Transport
}

func (c Config) withDefaults() Config {
	if c.Network == "" {
		c.Network = "tcp"
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// ListenTCP opens a loopback listener on an ephemeral port. Workers call it
// before registering with the launcher so the coordinator can distribute
// real addresses.
func ListenTCP() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// peerConn is one mesh connection plus this endpoint's receive queues for
// that peer. A dedicated reader goroutine demultiplexes incoming frames into
// the point-to-point and collective queues, so a posted nonblocking receive
// and a blocking collective can be outstanding toward the same peer at once.
type peerConn struct {
	conn net.Conn
	// wmu serializes frame writes: a nonblocking send chain's goroutine and
	// the rank goroutine's collective contribution may target the same
	// connection concurrently. It also guards wbuf, the storage every
	// outgoing frame is encoded into, so a steady-state send allocates
	// nothing.
	wmu  sync.Mutex
	wbuf []byte
	p2p  chan simmpi.Payload
	coll chan simmpi.CollPayload
	// dead is closed (once) when the reader loop exits; err holds the cause.
	dead     chan struct{}
	deadOnce sync.Once
	err      error
}

func newPeerConn(conn net.Conn) *peerConn {
	return &peerConn{
		conn: conn,
		p2p:  make(chan simmpi.Payload, 256),
		coll: make(chan simmpi.CollPayload, 16),
		dead: make(chan struct{}),
	}
}

func (pc *peerConn) fail(err error) {
	pc.deadOnce.Do(func() {
		pc.err = err
		close(pc.dead)
	})
}

// Endpoint is one rank's socket transport: size-1 mesh connections plus the
// reader goroutines feeding their queues. It implements simmpi.Transport.
type Endpoint struct {
	rank, size int
	timeout    time.Duration
	peers      []*peerConn // nil at the endpoint's own index
	closeOnce  sync.Once
}

// Connect wires rank into a full mesh over the given per-rank addresses,
// performing the handshake/rank exchange: rank r accepts one connection from
// every higher rank (each announced by a hello frame carrying the dialer's
// rank) and dials every lower rank. addrs[rank] must be the address ln
// listens on. Connect owns ln and closes it before returning: once the
// size−1−rank higher ranks are in nobody else has business connecting, and a
// rank that lives for hours should not keep an accepting port open.
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
			conn.SetReadDeadline(deadline)
			hello, err := readFrame(conn, nil)
			if err != nil || len(hello) != 5 || hello[0] != kindHello {
				conn.Close()
				acceptDone <- fmt.Errorf("tcpmpi: rank %d bad hello from mesh peer: %v", rank, err)
				return
			}
			peer := int(binary.LittleEndian.Uint32(hello[1:]))
			if peer <= rank || peer >= size || e.peers[peer] != nil {
				conn.Close()
				acceptDone <- fmt.Errorf("tcpmpi: rank %d got hello from unexpected rank %d", rank, peer)
				return
			}
			conn.SetReadDeadline(time.Time{})
			e.peers[peer] = newPeerConn(conn)
		}
		acceptDone <- nil
	}()

	var dialErr error
	for q := 0; q < rank && dialErr == nil; q++ {
		conn, err := dialRetry(cfg.Network, addrs[q], deadline)
		if err != nil {
			dialErr = fmt.Errorf("tcpmpi: rank %d dialing rank %d at %s: %w", rank, q, addrs[q], err)
			break
		}
		conn.SetWriteDeadline(deadline)
		if _, err := conn.Write(endFrame(appendU32(beginFrame(nil, kindHello), uint32(rank)))); err != nil {
			conn.Close()
			dialErr = fmt.Errorf("tcpmpi: rank %d hello to rank %d: %w", rank, q, err)
			break
		}
		conn.SetWriteDeadline(time.Time{})
		e.peers[q] = newPeerConn(conn)
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
	for src, pc := range e.peers {
		if pc != nil {
			go e.readLoop(src, pc)
		}
	}
	return e, nil
}

func dialRetry(network, addr string, deadline time.Time) (net.Conn, error) {
	// The peer's listener exists before its address is published, so a
	// failed dial is transient (accept backlog, unix-socket creation race);
	// retry with a short pause until the mesh deadline.
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("deadline exceeded")
			}
			return nil, lastErr
		}
		conn, err := net.DialTimeout(network, addr, remain)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
}

func (e *Endpoint) readLoop(src int, pc *peerConn) {
	br := bufio.NewReaderSize(pc.conn, 1<<16)
	// One frame buffer per peer: the decoders copy every value out into a
	// fresh typed slice, so the bytes are free again once a frame is queued.
	var frame []byte
	for {
		var err error
		if frame, err = readFrame(br, frame); err != nil {
			pc.fail(fmt.Errorf("%w: rank %d lost rank %d: %v", simmpi.ErrRankLost, e.rank, src, err))
			return
		}
		kind, body := frame[0], frame[1:]
		switch kind {
		case kindP2P:
			p, err := decodeP2P(body)
			if err != nil {
				pc.fail(fmt.Errorf("%w: rank %d lost rank %d: %v", simmpi.ErrRankLost, e.rank, src, err))
				return
			}
			pc.p2p <- p
		case kindColl:
			p, err := decodeColl(body)
			if err != nil {
				pc.fail(fmt.Errorf("%w: rank %d lost rank %d: %v", simmpi.ErrRankLost, e.rank, src, err))
				return
			}
			pc.coll <- p
		default:
			pc.fail(fmt.Errorf("%w: rank %d got frame kind %d from rank %d", simmpi.ErrRankLost, e.rank, kind, src))
			return
		}
	}
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the world size.
func (e *Endpoint) Size() int { return e.size }

// Send frames a payload to dst. The write is bounded by the configured
// timeout; a closed or wedged peer surfaces as an ErrRankLost-wrapped error.
func (e *Endpoint) Send(dst int, p simmpi.Payload) error {
	pc := e.peers[dst]
	select {
	case <-pc.dead:
		return pc.err
	default:
	}
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	pc.wbuf = endFrame(appendP2P(beginFrame(pc.wbuf, kindP2P), p))
	pc.conn.SetWriteDeadline(time.Now().Add(e.timeout))
	if _, err := pc.conn.Write(pc.wbuf); err != nil {
		err = fmt.Errorf("%w: rank %d writing to rank %d: %v", simmpi.ErrRankLost, e.rank, dst, err)
		pc.fail(err)
		return err
	}
	return nil
}

// Recv returns the next point-to-point payload from src, preferring queued
// payloads over a concurrently detected peer death so messages sent before a
// rank exited are still delivered.
func (e *Endpoint) Recv(src int) (simmpi.Payload, error) {
	pc := e.peers[src]
	select {
	case p := <-pc.p2p:
		return p, nil
	default:
	}
	timer := time.NewTimer(e.timeout)
	defer timer.Stop()
	select {
	case p := <-pc.p2p:
		return p, nil
	case <-pc.dead:
		select {
		case p := <-pc.p2p:
			return p, nil
		default:
		}
		return simmpi.Payload{}, pc.err
	case <-timer.C:
		return simmpi.Payload{}, fmt.Errorf("timed out receiving from %d (deadlock?)", src)
	}
}

func (e *Endpoint) collRecv(pc *peerConn, op string, from int) (simmpi.CollPayload, error) {
	var m simmpi.CollPayload
	select {
	case m = <-pc.coll:
	default:
		timer := time.NewTimer(e.timeout)
		defer timer.Stop()
		select {
		case m = <-pc.coll:
		case <-pc.dead:
			select {
			case m = <-pc.coll:
			default:
				return simmpi.CollPayload{}, pc.err
			}
		case <-timer.C:
			return simmpi.CollPayload{}, fmt.Errorf("timed out in collective %q waiting for rank %d", op, from)
		}
	}
	if m.Op != op {
		return simmpi.CollPayload{}, fmt.Errorf("collective mismatch: in %q, rank %d sent %q", op, from, m.Op)
	}
	return m, nil
}

func (e *Endpoint) sendColl(dst int, p simmpi.CollPayload) error {
	pc := e.peers[dst]
	select {
	case <-pc.dead:
		return pc.err
	default:
	}
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	pc.wbuf = endFrame(appendColl(beginFrame(pc.wbuf, kindColl), p))
	pc.conn.SetWriteDeadline(time.Now().Add(e.timeout))
	if _, err := pc.conn.Write(pc.wbuf); err != nil {
		err = fmt.Errorf("%w: rank %d writing collective to rank %d: %v", simmpi.ErrRankLost, e.rank, dst, err)
		pc.fail(err)
		return err
	}
	return nil
}

// Collective performs the whole-world rendezvous: rank 0 gathers every
// contribution, reduces in rank order with the shared simmpi.Reduce (so
// floating-point results are bitwise identical to the channel backend), and
// frames the result back to every rank.
func (e *Endpoint) Collective(contrib simmpi.CollPayload) (simmpi.CollPayload, error) {
	op := contrib.Op
	if e.size == 1 {
		return simmpi.Reduce(op, []simmpi.CollPayload{contrib})
	}
	if e.rank == 0 {
		parts := make([]simmpi.CollPayload, e.size)
		parts[0] = contrib
		for r := 1; r < e.size; r++ {
			m, err := e.collRecv(e.peers[r], op, r)
			if err != nil {
				return simmpi.CollPayload{}, err
			}
			parts[r] = m
		}
		result, err := simmpi.Reduce(op, parts)
		if err != nil {
			return simmpi.CollPayload{}, err
		}
		for r := 1; r < e.size; r++ {
			if err := e.sendColl(r, result); err != nil {
				return simmpi.CollPayload{}, err
			}
		}
		return result, nil
	}
	if err := e.sendColl(0, contrib); err != nil {
		return simmpi.CollPayload{}, err
	}
	return e.collRecv(e.peers[0], op, 0)
}

// Close tears the mesh down: every connection is closed, which unblocks this
// endpoint's reader loops and makes the peers' pending operations fail with
// ErrRankLost.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		for _, pc := range e.peers {
			if pc != nil {
				pc.conn.Close()
				pc.fail(fmt.Errorf("%w: endpoint closed", simmpi.ErrRankLost))
			}
		}
	})
	return nil
}
