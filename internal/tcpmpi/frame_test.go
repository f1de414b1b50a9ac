package tcpmpi

import (
	"encoding/binary"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fsaicomm/internal/simmpi"
)

// readFrame feeds stream to the assembler in pieces of at most piece bytes —
// the way a ring hands a frame over — and returns the first frame with the
// number of bytes it took, or io.ErrUnexpectedEOF if the stream ends first.
func readFrame(f *frameAsm, stream []byte, piece int) (frame []byte, took int, err error) {
	for took < len(stream) {
		used, frame, err := f.take(stream[took:min(took+piece, len(stream))])
		if took += used; err != nil || frame != nil {
			return frame, took, err
		}
	}
	return nil, took, io.ErrUnexpectedEOF
}

// meshOf2 connects two endpoints the way RunLocal does and hands them over.
func meshOf2(t *testing.T, cfg Config) (e0, e1 *Endpoint) {
	t.Helper()
	lns, addrs, err := listenAll(2)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Endpoint)
	go func() {
		e, err := Connect(1, lns[1], addrs, cfg)
		if err != nil {
			t.Error(err)
		}
		got <- e
	}()
	e0, err = Connect(0, lns[0], addrs, cfg)
	e1 = <-got
	if err != nil || e1 == nil {
		t.Fatalf("mesh of 2 did not form: %v", err)
	}
	t.Cleanup(func() { e0.Close(); e1.Close() })
	return e0, e1
}

// TestLyingHeaderCostsWhatArrived: a header may declare up to maxFrameBytes,
// but the body buffer grows only as bytes arrive — a peer that announces a
// gibibyte, delivers four bytes and hangs up has cost four bytes of body and
// an error, in the assembler alone and behind a ring and a socket.
func TestLyingHeaderCostsWhatArrived(t *testing.T) {
	lie := append(binary.LittleEndian.AppendUint32(nil, maxFrameBytes), kindP2P, 1, 2, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frame, _, err := readFrame(new(frameAsm), lie, len(lie))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a frame cut short after 4 of %d bytes was accepted (%d bytes)", maxFrameBytes, len(frame))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("a lying header allocated %d bytes for 4 delivered", grew)
	}

	e0, e1 := meshOf2(t, Config{Timeout: 5 * time.Second})
	if n, err := e1.peers[0].out.put(lie); n != len(lie) || err != nil {
		t.Fatalf("put %d of %d bytes: %v", n, len(lie), err)
	}
	e1.Close()
	runtime.ReadMemStats(&before)
	_, err = e0.Recv(simmpi.P2P, 1)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "rank lost") {
		t.Fatalf("receiving a frame its sender hung up in the middle of: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("a lying header in the ring allocated %d bytes for 4 delivered", grew)
	}
}

// TestReadFrameReusesItsBuffer: frames of changing sizes assembled in one
// assembler come back intact whatever the size of the pieces, and once its
// storage has seen the largest nothing more is allocated.
func TestReadFrameReusesItsBuffer(t *testing.T) {
	var stream []byte
	var want [][]float64
	for _, n := range []int{3, 40000, 0, 9000, 40000} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n + i)
		}
		want = append(want, v)
		stream = append(stream, endFrame(appendP2P(beginFrame(nil, kindP2P), simmpi.Payload{Src: 1, Tag: n, F64: v}))...)
	}
	var asm frameAsm
	for _, piece := range []int{1 << 30, ringBytes, 4096, 7, 1} {
		rest := stream
		for i, w := range want {
			frame, took, err := readFrame(&asm, rest, piece)
			if err != nil {
				t.Fatalf("pieces of %d, frame %d: %v", piece, i, err)
			}
			rest = rest[took:]
			p, err := decodeP2P(frame[1:])
			if err != nil || frame[0] != kindP2P || len(p.F64) != len(w) {
				t.Fatalf("pieces of %d, frame %d: kind %d, %d values, err %v; want %d values", piece, i, frame[0], len(p.F64), err, len(w))
			}
			for j := range w {
				if p.F64[j] != w[j] {
					t.Fatalf("pieces of %d, frame %d value %d: %v, want %v", piece, i, j, p.F64[j], w[j])
				}
			}
		}
		if len(rest) != 0 {
			t.Fatalf("pieces of %d: %d bytes of the stream left over", piece, len(rest))
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		rest := stream
		for range want {
			_, took, _ := readFrame(&asm, rest, ringBytes)
			rest = rest[took:]
		}
	}); allocs != 0 {
		t.Fatalf("assembling into storage that has seen the largest frame allocates %v times per pass", allocs)
	}
}

// TestSendAllocatesNothing: a frame of either lane is encoded straight after
// its reserved header into the connection's write buffer and copied from
// there into the ring, so once that buffer has seen the largest payload a
// send costs no allocation. The far end leaves the ring alone (the frames fit it, and
// nobody sleeps, so no doorbell is rung either): a reader in this process
// would allocate the decoded slices and AllocsPerRun counts the whole
// process.
func TestSendAllocatesNothing(t *testing.T) {
	e0, _ := meshOf2(t, Config{Timeout: 5 * time.Second})
	halo := simmpi.Payload{Src: 0, Tag: 3, F64: make([]float64, 16)}
	sum := simmpi.Payload{Tag: int(simmpi.Sum), F64: []float64{1, 2}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := e0.Send(simmpi.P2P, 1, halo); err != nil {
			t.Fatal(err)
		}
		if err := e0.Send(simmpi.Coll, 1, sum); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a p2p send plus a collective contribution allocate %v times", allocs)
	}
}

// TestFramesEndAtEveryOffsetAroundTheWrap starts a frame at every offset from
// its own length before the ring's wrap up to the wrap itself, in each
// direction, so that every byte of it — the header's four included — is once
// the last before the wrap and once the first after it. Whatever the offset,
// what comes out is what went in.
func TestFramesEndAtEveryOffsetAroundTheWrap(t *testing.T) {
	e0, e1 := meshOf2(t, Config{Timeout: 5 * time.Second})
	v := make([]float64, 12)
	for i := range v {
		v[i] = 1 / float64(i+3)
	}
	msg := simmpi.Payload{Src: 7, Tag: 9, F64: v}
	sum := simmpi.Payload{Src: 1, Tag: int(simmpi.Sum), F64: v[:2]}
	length := len(endFrame(appendP2P(beginFrame(nil, kindP2P), msg))) + len(endFrame(appendP2P(beginFrame(nil, kindColl), sum)))
	for _, dir := range []struct {
		from, to *Endpoint
		src, dst int
	}{{e0, e1, 0, 1}, {e1, e0, 1, 0}} {
		out := dir.from.peers[dir.dst].out
		for short := 0; short <= length; short++ {
			// An empty ring whose next byte is short bytes before the wrap.
			at := uint64(5*ringBytes - short)
			out.tail.Store(at)
			out.head.Store(at)
			if err := dir.from.Send(simmpi.P2P, dir.dst, msg); err != nil {
				t.Fatal(err)
			}
			if err := dir.from.Send(simmpi.Coll, dir.dst, sum); err != nil {
				t.Fatal(err)
			}
			p, err := dir.to.Recv(simmpi.P2P, dir.src)
			if err != nil || p.Src != msg.Src || p.Tag != msg.Tag || !slices.Equal(p.F64, v) {
				t.Fatalf("rank %d to %d, message starting %d bytes before the wrap: got %+v, %v", dir.src, dir.dst, short, p, err)
			}
			c, err := dir.to.Recv(simmpi.Coll, dir.src)
			if err != nil || c.Tag != sum.Tag || !slices.Equal(c.F64, sum.F64) {
				t.Fatalf("rank %d to %d, collective after a message starting %d bytes before the wrap: got %+v, %v", dir.src, dir.dst, short, c, err)
			}
		}
	}
}
