package simmpi

import (
	"errors"
	"fmt"
)

// Transport is the wire layer beneath a Comm: one rank's connection to its
// world. Everything a Comm does — tagged point-to-point messages, the
// collective rendezvous, and (built on top of these) the nonblocking
// operation chains — funnels through this interface, so a solver written
// against Comm runs unmodified over any backend.
//
// Two backends exist: the in-process channel simulator in this package
// (goroutine ranks, the test oracle) and the shared-memory ring backend in
// internal/tcpmpi (OS-process ranks that meet over TCP). The conformance
// suite in internal/commtest pins the semantics both must share:
//
//   - Per-sender FIFO: messages from one rank to another arrive in send
//     order. Messages from different senders order independently.
//   - Payload ownership passes to the transport on Send; the caller-facing
//     copy semantics (Comm copies before handing over, except self-sends)
//     live above this interface.
//   - Collective calls are a whole-world rendezvous reduced in rank order
//     (rank 0 is the root), so floating-point reductions are bitwise
//     identical across backends.
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
	// Send delivers a tagged payload to dst. The payload's backing arrays
	// belong to the transport after the call.
	Send(dst int, p Payload) error
	// Recv blocks for the next payload from src (per-sender FIFO; tags do
	// not match-make — Comm checks the tag of whatever arrives next).
	Recv(src int) (Payload, error)
	// Collective performs one whole-world rendezvous. Every rank must call
	// it with the same Op in the same per-rank operation order; the reduced
	// result is returned on every rank. Op mismatches are errors.
	Collective(contrib CollPayload) (CollPayload, error)
	// Close releases the endpoint. Blocking calls on peers of a closed
	// endpoint fail with ErrRankLost-wrapped errors.
	Close() error
}

// Payload is one tagged point-to-point message as carried by a Transport.
// Exactly one of F64, F32 and Ints is meaningful; a zero-length payload of
// any type is valid. F32 carries the half-width halo traffic of
// mixed-precision solves — 4 bytes per value on the wire and on the meter.
type Payload struct {
	Src, Tag int
	F64      []float64
	F32      []float32
	Ints     []int
}

// CollPayload is one rank's contribution to — or the reduced result of — a
// collective operation. Op names the operation (see Reduce); the vector
// fields carry whichever payload type the operation reduces.
type CollPayload struct {
	Op   string
	F64  []float64
	I64  []int64
	Ints []int
}

// ErrRankLost is wrapped by transport errors that mean a peer rank died or
// became unreachable (its process exited, its connection closed, or it
// stopped answering within the configured deadline). Backends must surface
// it instead of hanging; the runtime's per-rank recovery turns it into a
// clean error from Run.
var ErrRankLost = errors.New("simmpi: rank lost")

// Reduce combines per-rank collective contributions in rank order. parts
// must be indexed by rank (parts[0] is rank 0's contribution); iterating in
// ascending rank order makes floating-point reductions bitwise reproducible
// and identical across backends. It is exported so every Transport
// implementation shares one reduction semantics.
func Reduce(op string, parts []CollPayload) (CollPayload, error) {
	out := CollPayload{Op: op}
	switch op {
	case "barrier":
	case "allreduce-sum":
		out.F64 = make([]float64, len(parts[0].F64))
		for _, p := range parts {
			for i, v := range p.F64 {
				out.F64[i] += v
			}
		}
	case "allreduce-max":
		out.F64 = append([]float64(nil), parts[0].F64...)
		for _, p := range parts[1:] {
			for i, v := range p.F64 {
				if v > out.F64[i] {
					out.F64[i] = v
				}
			}
		}
	case "allreduce-min":
		out.F64 = append([]float64(nil), parts[0].F64...)
		for _, p := range parts[1:] {
			for i, v := range p.F64 {
				if v < out.F64[i] {
					out.F64[i] = v
				}
			}
		}
	case "allreduce-sum-i64":
		out.I64 = make([]int64, len(parts[0].I64))
		for _, p := range parts {
			for i, v := range p.I64 {
				out.I64[i] += v
			}
		}
	case "allreduce-max-i64":
		out.I64 = append([]int64(nil), parts[0].I64...)
		for _, p := range parts[1:] {
			for i, v := range p.I64 {
				if v > out.I64[i] {
					out.I64[i] = v
				}
			}
		}
	case "allgather-i64":
		for _, p := range parts {
			out.I64 = append(out.I64, p.I64...)
		}
	case "allgather-f64":
		for _, p := range parts {
			out.F64 = append(out.F64, p.F64...)
		}
	case "allgather-int":
		for _, p := range parts {
			out.Ints = append(out.Ints, p.Ints...)
		}
	case "bcast":
		out = parts[0]
		out.Op = op
	default:
		return CollPayload{}, fmt.Errorf("simmpi: unknown collective op %q", op)
	}
	return out, nil
}
