package tcpmpi

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fsaicomm/internal/simmpi"
)

// ringFiles lists the ring files that have a name right now. Other tests of
// other packages form meshes at the same time, so a name may be seen in the
// few milliseconds of a handshake; one that is still there after two seconds
// was left behind.
func ringFiles(t *testing.T) []string {
	t.Helper()
	var left []string
	for wait := time.Duration(0); wait < 2*time.Second; wait += 50 * time.Millisecond {
		left = left[:0]
		for _, dir := range []string{"/dev/shm", os.TempDir()} {
			found, err := filepath.Glob(filepath.Join(dir, ringPrefix+"*"))
			if err != nil {
				t.Fatal(err)
			}
			left = append(left, found...)
		}
		if len(left) == 0 {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return left
}

// TestRingFilesHaveNoName: the file behind a connection's rings has a name
// for the length of the handshake only — not once the mesh stands, not after
// Close, not after a handshake that failed half-way.
func TestRingFilesHaveNoName(t *testing.T) {
	e0, e1 := meshOf2(t, Config{Timeout: 5 * time.Second})
	if left := ringFiles(t); left != nil {
		t.Fatalf("a formed mesh left ring files behind: %v", left)
	}
	e0.Close()
	e1.Close()
	if left := ringFiles(t); left != nil {
		t.Fatalf("a closed mesh left ring files behind: %v", left)
	}

	// A dialer that says hello, is told the file's name and hangs up
	// without mapping it.
	ln, err := ListenTCP()
	if err != nil {
		t.Fatal(err)
	}
	hungUp := make(chan string, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			hungUp <- err.Error()
			return
		}
		defer conn.Close()
		conn.Write(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, helloMagic), 1))
		var n [2]byte
		conn.Read(n[:])
		name := make([]byte, binary.LittleEndian.Uint16(n[:]))
		conn.Read(name)
		hungUp <- string(name)
	}()
	_, err = Connect(0, ln, []string{ln.Addr().String(), "unused"}, Config{Timeout: 5 * time.Second})
	name := <-hungUp
	if err == nil || !strings.HasPrefix(filepath.Base(name), ringPrefix) {
		t.Fatalf("a peer that hung up after being told %q: Connect says %v", name, err)
	}
	if left := ringFiles(t); left != nil {
		t.Fatalf("a failed handshake left ring files behind: %v", left)
	}
}

// TestStaleDoorbellIsHarmless: doorbell bytes that no wait is waiting for —
// rung for a reason that has passed — are swallowed by the next sleep, which
// looks at the rings, finds what it finds and carries on: a message that is
// there is delivered, one that is not still times out.
func TestStaleDoorbellIsHarmless(t *testing.T) {
	e0, e1 := meshOf2(t, Config{Timeout: 300 * time.Millisecond})
	for range 5 {
		if _, err := e0.peers[1].conn.Write(doorbell); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if _, err := e1.Recv(0); err == nil || !strings.Contains(err.Error(), "timed out") || time.Since(start) < 250*time.Millisecond {
		t.Fatalf("a receive with five stale doorbells and no message ended after %v with: %v", time.Since(start), err)
	}
	for i := range 3 {
		e0.peers[1].conn.Write(doorbell)
		if err := e0.Send(1, simmpi.Payload{Tag: i, Ints: []int{i}}); err != nil {
			t.Fatal(err)
		}
		if p, err := e1.Recv(0); err != nil || p.Tag != i || len(p.Ints) != 1 || p.Ints[0] != i {
			t.Fatalf("message %d after stale doorbells: %+v, %v", i, p, err)
		}
	}
}

// envSilentPeer, set to rank 0's address, turns this test binary into rank 1
// of a mesh of two that joins and then does nothing: the process a test can
// SIGKILL (see TestMain).
const envSilentPeer = "TCPMPI_TEST_SILENT_PEER_OF"

func TestMain(m *testing.M) {
	if addr := os.Getenv(envSilentPeer); addr != "" {
		ln, err := ListenTCP()
		if err == nil {
			_, err = Connect(1, ln, []string{addr, ln.Addr().String()}, Config{})
		}
		if err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		select {}
	}
	os.Exit(m.Run())
}

// TestPeerLostWhileParkedOnAFullRing: a sender whose frame is larger than the
// ring, to a peer that takes nothing out, sleeps with the ring full; when the
// peer goes — an endpoint of this process closed, or a process of its own
// that is SIGKILLed with its mapping and its socket — the sender is told so
// at once, not after its timeout.
func TestPeerLostWhileParkedOnAFullRing(t *testing.T) {
	for _, tc := range []struct {
		name string
		peer func(t *testing.T) (e0 *Endpoint, lose func())
	}{
		{"closed", func(t *testing.T) (*Endpoint, func()) {
			e0, e1 := meshOf2(t, Config{})
			return e0, func() { e1.Close() }
		}},
		{"killed", func(t *testing.T) (*Endpoint, func()) {
			ln, err := ListenTCP()
			if err != nil {
				t.Fatal(err)
			}
			child := exec.Command(os.Args[0])
			child.Env = append(os.Environ(), envSilentPeer+"="+ln.Addr().String())
			child.Stderr = os.Stderr
			if err := child.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { child.Process.Kill(); child.Wait() })
			e0, err := Connect(0, ln, []string{ln.Addr().String(), "rank 1 dials"}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e0.Close() })
			return e0, func() { child.Process.Kill() }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e0, lose := tc.peer(t)
			sent := make(chan error, 1)
			go func() { sent <- e0.Send(1, simmpi.Payload{F64: make([]float64, 4*ringBytes/8)}) }()
			for room := 1; room > 0; time.Sleep(time.Millisecond) {
				room, _ = e0.peers[1].out.room()
			}
			time.Sleep(20 * time.Millisecond) // past the poll, into the sleep
			select {
			case err := <-sent:
				t.Fatalf("a send of four rings' worth returned with the ring full: %v", err)
			default:
			}
			start := time.Now()
			lose()
			if err := <-sent; !errors.Is(err, simmpi.ErrRankLost) || time.Since(start) > 5*time.Second {
				t.Fatalf("sender parked on a full ring when its peer went: %v after %v", err, time.Since(start))
			}
			if left := ringFiles(t); left != nil {
				t.Fatalf("ring files left behind: %v", left)
			}
		})
	}
}

// TestPollerHandsItsCoreOver: ranks that share one P and never stop polling
// still get on at the speed of a hand-over, not of a preemption. A poller
// that kept its P would be taken off it by the runtime after some 10 ms, once
// per message; two thousand messages then take twenty seconds instead of
// milliseconds. (The same offer goes to other processes through the
// system's yield, which one test process cannot observe.)
func TestPollerHandsItsCoreOver(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer simmpi.PollFor(time.Hour)()
	start := time.Now()
	_, err := RunLocal(2, Config{Timeout: time.Minute}, func(c *simmpi.Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < 1000; i++ {
			if c.Rank() == 0 {
				c.SendInts(peer, i, []int{i})
				c.RecvInts(peer, i)
			} else {
				c.SendInts(peer, i, c.RecvInts(peer, i))
			}
		}
		return nil
	})
	if took := time.Since(start); err != nil || took > 5*time.Second {
		t.Fatalf("1000 round trips between two pollers on one P took %v (%v)", took, err)
	}
}
