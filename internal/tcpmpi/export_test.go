package tcpmpi

import "time"

// PollFor sets how long a waiter polls before it parks — zero: every wait
// parks on its doorbell — and returns the function that puts the old value
// back. Not for tests that run in parallel.
func PollFor(d time.Duration) (restore func()) {
	old := pollFor
	pollFor = d
	return func() { pollFor = old }
}
