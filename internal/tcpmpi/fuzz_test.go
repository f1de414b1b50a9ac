package tcpmpi

import (
	"bytes"
	"math"
	"os"
	"testing"

	"fsaicomm/internal/simmpi"
)

// The three decoders face bytes a peer process wrote. Whatever arrives, they
// must return a value or an error — never panic — and anything they accept
// must be exactly what the encoder writes for the decoded value, so no two
// byte strings mean the same message.

func FuzzReadFrame(f *testing.F) {
	ok := endFrame(appendP2P(beginFrame(nil, kindP2P), simmpi.Payload{Src: 1, Tag: 7, F64: []float64{1, math.NaN()}}))
	f.Add(ok, uint16(0))
	f.Add(append(bytes.Clone(ok), 0xff), uint16(3))        // a second frame's first byte
	f.Add(ok[:len(ok)-1], uint16(1))                       // truncated body
	f.Add([]byte{0, 0, 0, 0}, uint16(2))                   // length 0: no kind byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 2}, uint16(4))    // length past maxFrameBytes
	f.Add([]byte{1, 0, 0, 0, 1, 9, 9, 9}, uint16(5))       // empty body
	f.Add([]byte{0, 0, 0, 0x40, kindP2P, 1, 2}, uint16(6)) // 1 GiB declared, two bytes sent
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		// The assembler sees the stream in two pieces, as a ring that wraps
		// or fills hands it over; where the cut falls must not matter.
		whole, took, err := readFrame(new(frameAsm), data, len(data)+1)
		whole = bytes.Clone(whole)
		var asm frameAsm
		split := int(cut) % (len(data) + 1)
		used, frame, err2 := asm.take(data[:split])
		if err2 == nil && frame == nil {
			var more int
			more, frame, err2 = asm.take(data[used:])
			used += more
		}
		if (err == nil) != (err2 == nil && frame != nil) || err == nil && (used != took || !bytes.Equal(frame, whole)) {
			t.Fatalf("stream %x: whole gives %x after %d bytes (%v), cut at %d gives %x after %d bytes (%v)", data, whole, took, err, split, frame, used, err2)
		}
		if err != nil {
			return
		}
		again := endFrame(append(beginFrame(nil, whole[0]), whole[1:]...))
		if !bytes.Equal(again, data[:took]) {
			t.Fatalf("frame %x re-written as %x", data[:took], again)
		}
	})
}

// FuzzRing interleaves puts and takes of random sizes on a real ring, the
// producer on one mapping of the file and the consumer on the other, against
// a bytes.Buffer that is given the same bytes: the ring must accept exactly
// what it has room for and give back the stream in order, across any number
// of wraps.
func FuzzRing(f *testing.F) {
	f.Add([]byte{200, 100, 255, 255, 255, 0, 7, 9}, uint64(0))
	f.Add([]byte{255, 1, 255, 1, 255, 1, 255, 255, 255, 255, 3, 255}, uint64(ringBytes-5))
	f.Add([]byte{0, 0, 1, 1}, uint64(1<<63))
	mem, path, err := createMapping()
	if err != nil {
		f.Fatal(err)
	}
	far, err := openMapping(path)
	os.Remove(path)
	if err != nil {
		f.Fatal(err)
	}
	prod, cons := ringAt(mem, 1), ringAt(far, 1)
	f.Fuzz(func(t *testing.T, sizes []byte, start uint64) {
		prod.tail.Store(start)
		prod.head.Store(start)
		var ref bytes.Buffer
		next := byte(0)
		for i, s := range sizes {
			n := int(s) * 331 // up to 84k: more than a ring holds
			if i%2 == 0 {
				p := make([]byte, n)
				for j := range p {
					p[j] = next
					next += 7
				}
				room, _ := prod.room()
				put, err := prod.put(p)
				if err != nil || put != min(room, n) {
					t.Fatalf("put %d bytes with room for %d: took %d, %v", n, room, put, err)
				}
				ref.Write(p[:put])
				next -= 7 * byte(n-put) // the bytes that did not fit come again
				continue
			}
			a, b, err := cons.peek()
			if err != nil || len(a)+len(b) != ref.Len() {
				t.Fatalf("peek gives %d+%d bytes (%v), %d are in flight", len(a), len(b), err, ref.Len())
			}
			got := append(bytes.Clone(a), b...)
			n = min(n, len(got))
			if want := ref.Next(n); !bytes.Equal(got[:n], want) {
				t.Fatalf("take %d: ring gives % x…, stream has % x…", n, got[:min(n, 16)], want[:min(n, 16)])
			}
			cons.advance(n)
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
