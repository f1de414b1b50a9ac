package tcpmpi

import (
	"time"

	"fsaicomm/internal/simmpi"
)

// Faults are test hooks injected between a Comm and the wire. Each hook sees
// outgoing point-to-point payloads (the simmpi.P2P lane) before framing; nil
// hooks are no-ops.
// Hooks run on whichever goroutine performs the send, so they must be safe
// for concurrent use if the test sends concurrently.
type Faults struct {
	// Drop suppresses the send entirely when it returns true: the frame
	// never reaches the wire and the receiver's bounded wait times out.
	Drop func(dst int, p simmpi.Payload) bool
	// Delay stalls the send by the returned duration (zero: no delay).
	Delay func(dst int, p simmpi.Payload) time.Duration
	// Duplicate sends the frame twice when it returns true, modeling a
	// retransmit bug; the receiver sees the payload two times.
	Duplicate func(dst int, p simmpi.Payload) bool
	// FailSend replaces the send outcome with err when non-nil, modeling a
	// broken connection detected at write time.
	FailSend func(dst int, p simmpi.Payload) error
}

// faultTransport decorates a Transport with Faults. Only the send path is
// intercepted: receive-side effects (loss, delay, duplication) are what the
// peer's send-side hooks produce.
type faultTransport struct {
	simmpi.Transport
	f Faults
}

// WithFaults wraps t so that outgoing point-to-point sends pass through the
// given fault hooks. The collective lane and the rank/size/close surface pass
// through untouched.
func WithFaults(t simmpi.Transport, f Faults) simmpi.Transport {
	return &faultTransport{Transport: t, f: f}
}

func (ft *faultTransport) Send(lane simmpi.Lane, dst int, p simmpi.Payload) error {
	if lane != simmpi.P2P {
		return ft.Transport.Send(lane, dst, p)
	}
	if ft.f.FailSend != nil {
		if err := ft.f.FailSend(dst, p); err != nil {
			return err
		}
	}
	if ft.f.Drop != nil && ft.f.Drop(dst, p) {
		return nil
	}
	if ft.f.Delay != nil {
		if d := ft.f.Delay(dst, p); d > 0 {
			time.Sleep(d)
		}
	}
	if err := ft.Transport.Send(lane, dst, p); err != nil {
		return err
	}
	if ft.f.Duplicate != nil && ft.f.Duplicate(dst, p) {
		return ft.Transport.Send(lane, dst, p)
	}
	return nil
}
