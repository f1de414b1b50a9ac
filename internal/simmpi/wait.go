package simmpi

import (
	"runtime"
	"time"
)

// pollFor is how long a waiter of either backend looks, at its channel or its
// rings, before it parks. A peer in step answers within microseconds, one with
// more of the phase to compute within tens; waking a parked thread costs 45 to
// 100 (its core went idle). A poll is worth the wake-up it saves (DESIGN §4g).
var pollFor = 100 * time.Microsecond

// Poll is the one waiting policy: a blocking wait's budget of further looks.
type Poll struct{ since time.Time }

// Again reports whether the waiter should look again rather than park. Before
// it says yes it gives away what the one it waits for may need: its P (a
// goroutine rank runs now, not after the poll) and then its core (another process or solve); with nobody to take them both
// calls come straight back. Where the core cannot be given away nobody polls.
func (p *Poll) Again() bool {
	if p.since.IsZero() {
		p.since = time.Now()
	}
	if !canYield || time.Since(p.since) >= pollFor {
		return false
	}
	runtime.Gosched()
	yield()
	return true
}

// PollFor is for tests, not parallel ones: it sets pollFor (zero: every wait
// parks) and returns the function that puts the old value back.
func PollFor(d time.Duration) (restore func()) {
	pollFor, d = d, pollFor
	return func() { pollFor, d = d, pollFor }
}

// Waits counts the blocking waits of a rank's goroutine (plain adds) by how
// they ended: at first look, polling, parked.
type Waits struct{ Ready, Polled, Parked int64 }

// recvWithin takes the next value off ch: what is there, what comes while it
// polls, and then it parks for at most timeout (zero: for good). The timer is
// armed to park and stopped after: a time.After would stay queued for an hour.
func recvWithin(ch <-chan Payload, timeout time.Duration, wc *Waits) (m Payload, ok bool) {
	select {
	case m = <-ch:
		wc.Ready++
		return m, true
	default:
	}
	for p := (Poll{}); p.Again(); {
		select {
		case m = <-ch:
			wc.Polled++
			return m, true
		default:
		}
	}
	wc.Parked++
	if timeout <= 0 {
		return <-ch, true
	}
	t := time.NewTimer(timeout)
	select {
	case m = <-ch:
		ok = true
	case <-t.C:
	}
	t.Stop()
	return m, ok
}
