package mprun

import (
	"sync/atomic"
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
