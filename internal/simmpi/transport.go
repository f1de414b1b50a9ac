package simmpi

import "errors"

// Transport is the wire layer beneath a Comm: one rank's connection to its
// world. It moves ordered payloads between two ranks on two lanes and knows
// nothing of what they mean: tags, element types, copies, the collective
// rendezvous (see collective) and the meters all live in Comm, so a solver
// written against Comm runs unmodified over any backend.
//
// Two backends exist: the in-process channel simulator in this package
// (goroutine ranks, the test oracle) and the shared-memory ring backend in
// internal/tcpmpi (OS-process ranks that meet over TCP). The conformance
// suite in internal/commtest pins the semantics both must share:
//
//   - Per-sender FIFO on each lane: messages from one rank to another on one
//     lane arrive in send order. Messages from different senders, or on
//     different lanes, order independently.
//   - Payload ownership passes to the transport on Send; the caller-facing
//     copy semantics (Comm copies before handing over, except self-sends)
//     live above this interface.
//   - Failures surface as errors, never hangs: a blocking call on a dead or
//     absent peer must return within the backend's configured timeout.
//
// Self-sends never reach the transport: Comm short-circuits rank→rank
// messages through an in-process loopback queue, so implementations may
// assume dst != Rank() and src != Rank().
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size()).
	Rank() int
	// Size returns the world size.
	Size() int
	// Send delivers a payload to dst on the given lane. The payload's
	// backing arrays belong to the transport after the call.
	Send(lane Lane, dst int, p Payload) error
	// Recv blocks for the next payload from src on the given lane (per-sender
	// FIFO; tags do not match-make — Comm checks whatever arrives next).
	Recv(lane Lane, src int) (Payload, error)
	// Close releases the endpoint. Blocking calls on peers of a closed
	// endpoint fail with ErrRankLost-wrapped errors.
	Close() error
}

// Lane is one of the two message streams between a pair of ranks, each a
// FIFO of its own: a collective never takes a point-to-point message, nor a
// receive a collective's.
type Lane uint8

const (
	P2P  Lane = iota // tagged point-to-point messages (Send, Recv)
	Coll             // collective contributions and results; the tag is the Op
)

// Payload is one tagged message as carried by a Transport. Exactly one of
// F64, F32 and Ints is meaningful, the one of the message's Elem: a Send of
// float64 values fills F64, of float32 values F32 and of int values Ints. A
// zero-length payload of any type is valid, and has no type. F32 carries the
// half-width halo traffic of mixed-precision solves — 4 bytes per value on
// the wire and on the meter; F64 and Ints take 8.
type Payload struct {
	Src, Tag int
	F64      []float64
	F32      []float32
	Ints     []int
}

// ErrRankLost is wrapped by transport errors that mean a peer rank died or
// became unreachable (its process exited, its connection closed, or it
// stopped answering within the configured deadline). Backends must surface
// it instead of hanging; the runtime's per-rank recovery turns it into a
// clean error from Run.
var ErrRankLost = errors.New("simmpi: rank lost")
