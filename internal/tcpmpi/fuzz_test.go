package tcpmpi

import (
	"bytes"
	"math"
	"testing"

	"fsaicomm/internal/simmpi"
)

// The three decoders face bytes a peer process wrote. Whatever arrives, they
// must return a value or an error — never panic — and anything they accept
// must be exactly what the encoder writes for the decoded value, so no two
// byte strings mean the same message.

func FuzzReadFrame(f *testing.F) {
	ok := endFrame(appendP2P(beginFrame(nil, kindP2P), simmpi.Payload{Src: 1, Tag: 7, F64: []float64{1, math.NaN()}}))
	f.Add(ok)
	f.Add(append(bytes.Clone(ok), 0xff))          // a second frame's first byte
	f.Add(ok[:len(ok)-1])                         // truncated body
	f.Add([]byte{0, 0, 0, 0})                     // length 0: no kind byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 2})      // length past maxFrameBytes
	f.Add([]byte{1, 0, 0, 0, kindHello, 9, 9, 9}) // empty body
	f.Add([]byte{0, 0, 0, 0x40, kindP2P, 1, 2})   // 1 GiB declared, two bytes sent
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		frame, err := readFrame(r, nil)
		if err != nil {
			return
		}
		again := endFrame(append(beginFrame(nil, frame[0]), frame[1:]...))
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(again, consumed) {
			t.Fatalf("frame %x re-written as %x", consumed, again)
		}
	})
}

func FuzzDecodeP2P(f *testing.F) {
	f.Add(appendP2P(nil, simmpi.Payload{Src: 3, Tag: -2}))
	f.Add(appendP2P(nil, simmpi.Payload{Src: 0, Tag: 1, F64: []float64{0, -0.0, math.Inf(1), math.NaN()}}))
	f.Add(appendP2P(nil, simmpi.Payload{Src: 2, Tag: 5, F32: []float32{1.5, float32(math.NaN())}}))
	f.Add(appendP2P(nil, simmpi.Payload{Src: 1, Tag: 9, Ints: []int{-1, 0, math.MaxInt64}}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, typNone, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}) // untyped, yet one value
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, typF64, 0, 0, 0, 0})                          // typed, yet empty
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0})                               // unknown type
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, typF64, 0xff, 0xff, 0xff, 0xff})              // count without data
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := decodeP2P(body)
		if err != nil {
			return
		}
		if again := appendP2P(nil, p); !bytes.Equal(again, body) {
			t.Fatalf("p2p body %x decoded to %+v, which encodes as %x", body, p, again)
		}
	})
}

func FuzzDecodeColl(f *testing.F) {
	f.Add(appendColl(nil, simmpi.CollPayload{Op: "barrier"}))
	f.Add(appendColl(nil, simmpi.CollPayload{Op: "sum", F64: []float64{1, math.NaN()}}))
	f.Add(appendColl(nil, simmpi.CollPayload{Op: "sumi64", I64: []int64{-1, math.MinInt64}}))
	f.Add(appendColl(nil, simmpi.CollPayload{Op: "gather", Ints: []int{3, -4}}))
	f.Add(append(appendColl(nil, simmpi.CollPayload{Op: "max", F64: []float64{2}}), 0)) // trailing byte
	f.Add([]byte{200, 'x'})                                                             // op longer than the frame
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff})                                            // count without data
	f.Fuzz(func(t *testing.T, body []byte) {
		p, err := decodeColl(body)
		if err != nil {
			return
		}
		if again := appendColl(nil, p); !bytes.Equal(again, body) {
			t.Fatalf("collective body %x decoded to %+v, which encodes as %x", body, p, again)
		}
	})
}
