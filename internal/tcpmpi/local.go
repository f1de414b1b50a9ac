package tcpmpi

import (
	"fmt"
	"net"
	"sync"

	"fsaicomm/internal/simmpi"
)

// listenAll opens one loopback listener per rank and returns their
// addresses. Listeners all exist before any address is returned, so mesh
// dials cannot race listener creation.
func listenAll(size int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	for r := range lns {
		ln, err := ListenTCP()
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("tcpmpi: rank %d listen: %w", r, err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	return lns, addrs, nil
}

// RunLocal spawns fn on every rank of a fresh mesh, one goroutine per rank,
// each over its own Endpoint and its own mapping of the rings — the full wire
// path (framing, mesh handshake, rings and doorbells) without the
// process-spawn cost. Panics inside a rank are recovered into errors; the
// first non-nil error in rank order wins. Each rank meters its own traffic (as
// the multi-process workers do); the returned meter is the per-rank meters
// merged, comparable to an in-process World's.
func RunLocal(size int, cfg Config, fn func(c *simmpi.Comm) error) (*simmpi.Meter, error) {
	return RunLocalTopo(size, cfg, simmpi.Topology{}, fn)
}

// RunLocalTopo is RunLocal with a two-level topology attached to every
// rank's meter (and hence Comm), mirroring simmpi.RunTopo for this
// backend.
func RunLocalTopo(size int, cfg Config, topo simmpi.Topology, fn func(c *simmpi.Comm) error) (*simmpi.Meter, error) {
	cfg = cfg.withDefaults()
	if size < 1 {
		return nil, fmt.Errorf("tcpmpi: world size %d < 1", size)
	}
	if err := topo.Validate(size); err != nil {
		return nil, err
	}
	lns, addrs, err := listenAll(size)
	if err != nil {
		return nil, err
	}
	meters := make([]*simmpi.Meter, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("simmpi: rank %d panicked: %v", rank, p)
				}
			}()
			ep, err := Connect(rank, lns[rank], addrs, cfg)
			if err != nil {
				errs[rank] = err
				return
			}
			defer ep.Close()
			var t simmpi.Transport = ep
			if cfg.Wrap != nil {
				t = cfg.Wrap(rank, t)
			}
			meters[rank] = simmpi.NewMeterTopo(size, topo)
			c := simmpi.NewComm(t, meters[rank], cfg.Timeout)
			errs[rank] = fn(c)
			if errs[rank] == nil {
				// Flush outstanding nonblocking chains before the deferred
				// endpoint Close: a peer may still be waiting on an async
				// send fn posted on its way out.
				c.Quiesce()
			}
		}(r)
	}
	wg.Wait()
	merged := simmpi.NewMeterTopo(size, topo)
	for _, m := range meters {
		if m != nil {
			merged.Merge(m)
		}
	}
	for _, err := range errs {
		if err != nil {
			return merged, err
		}
	}
	return merged, nil
}
