package tcpmpi

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// One mesh connection owns one shared mapping: a page of control words and
// two byte rings, one per direction. Ring 0 carries the creating (accepting,
// lower) rank's frames to the mapping (dialing, higher) rank, ring 1 the
// other way. A ring has one producer process and one consumer process; each
// control word has one writer, except the two flags, which either side may
// clear.
//
//	offset in the mapping            writer    meaning
//	ring i: i*ringCtrl + 0    tail   producer  bytes ever put
//	        i*ringCtrl + 64   head   consumer  bytes ever taken
//	        i*ringCtrl + 128  asleep consumer  "ring my socket when you put"
//	        i*ringCtrl + 192  starved producer "ring my socket when you take"
//	ctrlBytes + i*ringBytes   data   producer  byte k of the stream at k % ringBytes
//
// Every word sits on a cache line of its own, so the producer's tail and the
// consumer's head do not bounce one line between two cores.
const (
	// ringBytes is what one direction buffers. Frames stream through in
	// pieces, so it bounds no message; it is small so that a mesh costs
	// little and a frame's bytes are still in cache when the peer takes them.
	ringBytes = 64 << 10
	ringCtrl  = 256
	ctrlBytes = 4096
	// ConnBytes is the shared memory one mesh connection maps.
	ConnBytes = ctrlBytes + 2*ringBytes

	ringPrefix = "fsaicomm-ring-"
)

// MeshBytes is the shared memory a full mesh of size ranks maps: one mapping
// per pair, whichever way one counts the two processes that share it.
func MeshBytes(size int) int64 {
	return int64(size*(size-1)/2) * ConnBytes
}

// ring is one process's view of one direction of a mapping. The producer
// calls put, the consumer peek and advance; nothing else.
type ring struct {
	tail, head      *atomic.Uint64
	asleep, starved *atomic.Uint32
	data            []byte
}

func ringAt(mem []byte, i int) ring {
	word := func(off int) unsafe.Pointer { return unsafe.Pointer(&mem[i*ringCtrl+off]) }
	return ring{
		tail:    (*atomic.Uint64)(word(0)),
		head:    (*atomic.Uint64)(word(64)),
		asleep:  (*atomic.Uint32)(word(128)),
		starved: (*atomic.Uint32)(word(192)),
		data:    mem[ctrlBytes+i*ringBytes:][:ringBytes:ringBytes],
	}
}

// errRingCorrupt means the peer wrote an index no correct peer writes; the
// connection is treated as lost.
var errRingCorrupt = fmt.Errorf("tcpmpi: ring indices out of range")

// room is how many bytes put would take now.
func (r ring) room() (int, error) {
	used := r.tail.Load() - r.head.Load()
	if used > ringBytes {
		return 0, errRingCorrupt
	}
	return ringBytes - int(used), nil
}

// put copies as much of p as there is room for and publishes it.
func (r ring) put(p []byte) (int, error) {
	tail := r.tail.Load()
	used := tail - r.head.Load()
	if used > ringBytes {
		return 0, errRingCorrupt
	}
	n := min(ringBytes-int(used), len(p))
	k := copy(r.data[tail%ringBytes:], p[:n])
	copy(r.data, p[k:n])
	r.tail.Store(tail + uint64(n))
	return n, nil
}

// peek returns the published bytes not yet taken, in stream order: b is
// empty unless they wrap. The slices alias the ring until advance.
func (r ring) peek() (a, b []byte, err error) {
	head := r.head.Load()
	n := r.tail.Load() - head
	if n > ringBytes {
		return nil, nil, errRingCorrupt
	}
	off := head % ringBytes
	a = r.data[off:min(off+n, ringBytes)]
	return a, r.data[:int(n)-len(a)], nil
}

// advance gives n peeked bytes back to the producer.
func (r ring) advance(n int) { r.head.Add(uint64(n)) }

// wake reports whether flag was up, taking it down: the caller then owes the
// other side one doorbell byte. The plain load first keeps the common case —
// nobody sleeps — off the locked instruction.
func wake(flag *atomic.Uint32) bool {
	return flag.Load() != 0 && flag.CompareAndSwap(1, 0)
}
