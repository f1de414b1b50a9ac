package mprun

import (
	"sync/atomic"
	"syscall"
	"testing"
)

// CountTraces counts this process's cache-simulator runs (one per rank job
// that was handed no misses) until the test ends.
func CountTraces(t testing.TB) *atomic.Int64 {
	n := new(atomic.Int64)
	onTrace = func() { n.Add(1) }
	t.Cleanup(func() { onTrace = nil })
	return n
}

// WatchMeshes hands fn every mesh this process starts until the test ends —
// the way a test reaches the workers of a mesh that a Prepared keeps private.
// fn runs inside Start, before the mesh's first job.
func WatchMeshes(t testing.TB, fn func(*Mesh)) {
	onStart = fn
	t.Cleanup(func() { onStart = nil })
}

// SentBytes is the total the coordinator side has written to workers.
func SentBytes() int64 { return counters.sentBytes.Load() }

// KillWorker SIGKILLs rank's worker process.
func (m *Mesh) KillWorker(rank int) error {
	return m.workers[rank].cmd.Process.Signal(syscall.SIGKILL)
}

// Reaped reports whether every worker process has been waited for.
func (m *Mesh) Reaped() bool {
	for _, w := range m.workers {
		if w.cmd.ProcessState == nil {
			return false
		}
	}
	return true
}

// HangUpAndWait closes the coordinator connections — what the death of the
// coordinating process looks like to the workers — and waits for them to
// exit by themselves.
func (m *Mesh) HangUpAndWait() error {
	for _, w := range m.workers {
		w.conn.Close()
	}
	for _, w := range m.workers {
		if err := w.cmd.Wait(); err != nil {
			return err
		}
	}
	return nil
}
