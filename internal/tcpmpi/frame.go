// Package tcpmpi is the multi-process backend of the simmpi Transport
// interface: ranks are OS processes (or goroutines in tests) on one host. The
// name is where it came from and what still finds the peers: a rank listens
// on a loopback TCP port, the mesh is formed by dialing those ports, and a
// connection's death is how a lost rank shows. But no message travels over
// TCP any more. Each connection owns a pair of byte rings in shared memory
// (ring.go); the length-prefixed frames of this file are copied into the
// ring, the goroutine that waits for a message takes them out itself, and the
// socket carries the handshake, one doorbell byte to a peer that has gone to
// sleep, and the EOF that means simmpi.ErrRankLost (endpoint.go). The rings
// are a mapped file, which is unix (mapping_unix.go); elsewhere the package
// builds and Connect fails. Semantics
// are pinned to the in-process channel backend by the conformance suite in
// internal/commtest; the differential tests in the root package additionally
// assert bit-identical solver results across backends.
package tcpmpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"fsaicomm/internal/simmpi"
)

// Frame kinds. Every frame in a ring is
//
//	u32 length (of everything after this field) | u8 kind | body
//
// with all integers little-endian and floats as IEEE-754 bit patterns.
const (
	kindP2P  byte = 2 // body: p2p payload (see appendP2P)
	kindColl byte = 3 // body: collective payload (see appendColl)
)

// maxFrameBytes bounds a decoded frame; anything larger means a corrupt or
// hostile stream, not solver traffic.
const maxFrameBytes = 1 << 30

// beginFrame starts a frame of the given kind in b's storage: the length
// field is reserved, the encoders append the body, endFrame fills the length
// in. One buffer per connection, filled and copied out under the
// connection's write mutex: frames of several goroutines must not interleave
// in the ring.
func beginFrame(b []byte, kind byte) []byte {
	return append(b[:0], 0, 0, 0, 0, kind)
}

func endFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// frameAsm puts frames back together from a byte stream that arrives in
// pieces of any size — a ring hands over what has been published so far, and
// a frame larger than the ring never sits in it whole. The body's storage is
// reused from frame to frame, and it grows by what has arrived, not by what
// the header declares: a header that lies costs about twice what the peer
// really sent, never the 1 GiB the length field can claim.
type frameAsm struct {
	hdr  [4]byte
	nhdr int
	need int // body bytes the header declared; 0 while the header is incomplete
	body []byte
}

// take consumes bytes of p toward the frame in progress and reports how many
// it used. Once the frame is complete it is returned — kind byte and body as
// one slice, frame[0] the kind — and the rest of p belongs to the next take.
// The frame aliases the assembler's storage until then; nothing decoded from
// it may.
func (f *frameAsm) take(p []byte) (used int, frame []byte, err error) {
	if f.need == 0 {
		used = copy(f.hdr[f.nhdr:], p)
		if f.nhdr += used; f.nhdr < len(f.hdr) {
			return used, nil, nil
		}
		n := binary.LittleEndian.Uint32(f.hdr[:])
		if n < 1 || n > maxFrameBytes {
			return used, nil, fmt.Errorf("tcpmpi: frame length %d out of range", n)
		}
		f.nhdr, f.need, f.body = 0, int(n), f.body[:0]
	}
	k := min(len(p)-used, f.need-len(f.body))
	f.body = append(f.body, p[used:used+k]...)
	if used += k; len(f.body) < f.need {
		return used, nil, nil
	}
	f.need = 0
	return used, f.body, nil
}

// Payload type tags inside p2p frames. Empty payloads are typeless on the
// wire, mirroring the channel backend where copying an empty slice yields
// nil and the receiver-side type check accepts either accessor.
const (
	typNone byte = 0
	typF64  byte = 1
	typInts byte = 2
	typF32  byte = 3
)

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// appendP2P appends the body of a point-to-point frame.
func appendP2P(b []byte, p simmpi.Payload) []byte {
	typ, n := typNone, 0
	switch {
	case len(p.F64) > 0:
		typ, n = typF64, len(p.F64)
	case len(p.F32) > 0:
		typ, n = typF32, len(p.F32)
	case len(p.Ints) > 0:
		typ, n = typInts, len(p.Ints)
	}
	b = slices.Grow(b, 13+8*n)
	b = appendU32(b, uint32(p.Src))
	b = appendU32(b, uint32(p.Tag))
	b = append(b, typ)
	b = appendU32(b, uint32(n))
	switch typ {
	case typF64:
		for _, v := range p.F64 {
			b = appendU64(b, math.Float64bits(v))
		}
	case typF32:
		// 4 bytes per value: the wire pays exactly what the meter charges.
		for _, v := range p.F32 {
			b = appendU32(b, math.Float32bits(v))
		}
	case typInts:
		for _, v := range p.Ints {
			b = appendU64(b, uint64(v))
		}
	}
	return b
}

func decodeP2P(body []byte) (simmpi.Payload, error) {
	if len(body) < 13 {
		return simmpi.Payload{}, fmt.Errorf("tcpmpi: p2p frame %d bytes, want >= 13", len(body))
	}
	p := simmpi.Payload{
		Src: int(int32(binary.LittleEndian.Uint32(body))),
		Tag: int(int32(binary.LittleEndian.Uint32(body[4:]))),
	}
	typ := body[8]
	n := int(binary.LittleEndian.Uint32(body[9:]))
	// The encoder writes empty payloads untyped and nothing else, so a frame
	// has one spelling and a decoded payload re-encodes to the bytes it came
	// from.
	if (typ == typNone) != (n == 0) {
		return simmpi.Payload{}, fmt.Errorf("tcpmpi: p2p frame type %d with %d values", typ, n)
	}
	data := body[13:]
	want := 8 * n
	if typ == typF32 {
		want = 4 * n
	}
	if len(data) != want {
		return simmpi.Payload{}, fmt.Errorf("tcpmpi: p2p frame payload %d bytes, want %d", len(data), want)
	}
	switch typ {
	case typNone:
		// n==0: all slices stay nil, matching the channel backend's copy of
		// an empty payload.
	case typF64:
		p.F64 = make([]float64, n)
		for i := range p.F64 {
			p.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
	case typF32:
		p.F32 = make([]float32, n)
		for i := range p.F32 {
			p.F32[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
	case typInts:
		p.Ints = make([]int, n)
		for i := range p.Ints {
			p.Ints[i] = int(int64(binary.LittleEndian.Uint64(data[8*i:])))
		}
	default:
		return simmpi.Payload{}, fmt.Errorf("tcpmpi: p2p frame type %d", typ)
	}
	return p, nil
}

// appendColl appends the body of a collective frame.
func appendColl(b []byte, p simmpi.CollPayload) []byte {
	if len(p.Op) > 255 {
		panic(fmt.Sprintf("tcpmpi: collective op %q too long", p.Op))
	}
	b = slices.Grow(b, 1+len(p.Op)+12+8*(len(p.F64)+len(p.I64)+len(p.Ints)))
	b = append(b, byte(len(p.Op)))
	b = append(b, p.Op...)
	b = appendU32(b, uint32(len(p.F64)))
	for _, v := range p.F64 {
		b = appendU64(b, math.Float64bits(v))
	}
	b = appendU32(b, uint32(len(p.I64)))
	for _, v := range p.I64 {
		b = appendU64(b, uint64(v))
	}
	b = appendU32(b, uint32(len(p.Ints)))
	for _, v := range p.Ints {
		b = appendU64(b, uint64(v))
	}
	return b
}

func decodeColl(body []byte) (simmpi.CollPayload, error) {
	bad := func() (simmpi.CollPayload, error) {
		return simmpi.CollPayload{}, fmt.Errorf("tcpmpi: truncated or overlong collective frame (%d bytes left)", len(body))
	}
	if len(body) < 1 {
		return bad()
	}
	opLen := int(body[0])
	body = body[1:]
	if len(body) < opLen {
		return bad()
	}
	p := simmpi.CollPayload{Op: string(body[:opLen])}
	body = body[opLen:]
	vec := func() ([]uint64, bool) {
		if len(body) < 4 {
			return nil, false
		}
		n := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if n > maxFrameBytes/8 || len(body) < 8*n {
			return nil, false
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		body = body[8*n:]
		return out, true
	}
	f64, ok := vec()
	if !ok {
		return bad()
	}
	i64, ok := vec()
	if !ok {
		return bad()
	}
	ints, ok := vec()
	if !ok || len(body) != 0 {
		return bad()
	}
	// Mirror the channel backend's nil-for-empty contributions so reduced
	// results round-trip identically.
	if len(f64) > 0 {
		p.F64 = make([]float64, len(f64))
		for i, v := range f64 {
			p.F64[i] = math.Float64frombits(v)
		}
	}
	if len(i64) > 0 {
		p.I64 = make([]int64, len(i64))
		for i, v := range i64 {
			p.I64[i] = int64(v)
		}
	}
	if len(ints) > 0 {
		p.Ints = make([]int, len(ints))
		for i, v := range ints {
			p.Ints[i] = int(int64(v))
		}
	}
	return p, nil
}
