package simmpi_test

import (
	"testing"
	"time"

	"fsaicomm/internal/commtest"
	"fsaicomm/internal/simmpi"
)

// The channel backend is the conformance oracle: the corpus codifies its
// semantics, and this run guards the corpus against drifting away from them.
func TestConformanceSim(t *testing.T) {
	commtest.RunConformance(t, commtest.Harness{
		Name: "sim",
		Run: func(size int, timeout time.Duration, fn func(c *simmpi.Comm) error) (*simmpi.Meter, error) {
			w, err := simmpi.Run(size, timeout, fn)
			return w.Meter(), err
		},
	})
}

// The same corpus with no wait polling: every receive that finds nothing
// arms its timer and parks, as all of them did before the poll.
func TestConformanceSimParked(t *testing.T) {
	defer simmpi.PollFor(0)()
	commtest.RunConformance(t, commtest.Harness{
		Name: "sim-parked",
		Run: func(size int, timeout time.Duration, fn func(c *simmpi.Comm) error) (*simmpi.Meter, error) {
			w, err := simmpi.Run(size, timeout, fn)
			return w.Meter(), err
		},
	})
}
