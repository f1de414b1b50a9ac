package tcpmpi_test

import (
	"testing"
	"time"

	"fsaicomm/internal/commtest"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/tcpmpi"
)

// The ring backend must pass the oracle's conformance corpus verbatim: here
// with every wait polling first, as shipped.
func TestConformanceTCP(t *testing.T) {
	commtest.RunConformance(t, commtest.Harness{
		Name: "tcp",
		Run: func(size int, timeout time.Duration, fn func(c *simmpi.Comm) error) (*simmpi.Meter, error) {
			return tcpmpi.RunLocal(size, tcpmpi.Config{Timeout: timeout}, fn)
		},
	})
}

// The same corpus with no wait polling: each one parks on its doorbell, which
// the shipped poll mostly keeps a corpus this quick from doing. (The name is
// from when the second run was over unix-domain sockets; there is one socket
// family now, and the test floor knows the cases by this name.)
func TestConformanceUnix(t *testing.T) {
	defer simmpi.PollFor(0)()
	commtest.RunConformance(t, commtest.Harness{
		Name: "unix",
		Run: func(size int, timeout time.Duration, fn func(c *simmpi.Comm) error) (*simmpi.Meter, error) {
			return tcpmpi.RunLocal(size, tcpmpi.Config{Timeout: timeout}, fn)
		},
	})
}
