package tcpmpi

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"fsaicomm/internal/simmpi"
)

// TestLyingHeaderCostsWhatArrived: a header may declare up to maxFrameBytes,
// but the body buffer grows only as bytes arrive — a peer that announces a
// gibibyte and hangs up has cost one growth step, not the gibibyte.
func TestLyingHeaderCostsWhatArrived(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, maxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frame, err := readFrame(bytes.NewReader(append(hdr, kindP2P, 1, 2, 3)), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a frame cut short after 4 of %d bytes was accepted (%d bytes)", maxFrameBytes, len(frame))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("a lying header allocated %d bytes for 4 delivered", grew)
	}
}

// TestReadFrameReusesItsBuffer: frames of changing sizes read into one buffer
// come back intact, and once the buffer has seen the largest nothing more is
// allocated — what the per-peer reader loop relies on.
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
	r := bytes.NewReader(stream)
	var buf []byte
	for i, w := range want {
		var err error
		if buf, err = readFrame(r, buf); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		p, err := decodeP2P(buf[1:])
		if err != nil || buf[0] != kindP2P || len(p.F64) != len(w) {
			t.Fatalf("frame %d: kind %d, %d values, err %v; want %d values", i, buf[0], len(p.F64), err, len(w))
		}
		for j := range w {
			if p.F64[j] != w[j] {
				t.Fatalf("frame %d value %d: %v, want %v", i, j, p.F64[j], w[j])
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		r.Reset(stream)
		for range want {
			buf, _ = readFrame(r, buf)
		}
	}); allocs != 0 {
		t.Fatalf("reading into a buffer that has seen the largest frame allocates %v times per pass", allocs)
	}
}

// TestSendAllocatesNothing: a frame is encoded straight after its reserved
// header into the connection's write buffer and leaves in one Write, so once
// that buffer has seen the largest payload a send costs no allocation. The
// far end of the socket is left unread (the frames fit the kernel's
// buffers): a reader in this process would allocate the decoded slices and
// AllocsPerRun counts the whole process.
func TestSendAllocatesNothing(t *testing.T) {
	ln, err := ListenTCP()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	far, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	e := &Endpoint{rank: 0, size: 2, timeout: 5 * time.Second, peers: []*peerConn{nil, newPeerConn(near)}}
	halo := simmpi.Payload{Src: 0, Tag: 3, F64: make([]float64, 16)}
	sum := simmpi.CollPayload{Op: "allreduce-sum", F64: []float64{1, 2}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := e.Send(1, halo); err != nil {
			t.Fatal(err)
		}
		if err := e.sendColl(1, sum); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a p2p send plus a collective contribution allocate %v times", allocs)
	}
}
