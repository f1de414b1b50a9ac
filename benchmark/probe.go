package main

import (
	"time"
)

// The bench host is a 2-vCPU guest whose speed drifts with its neighbours:
// the same code reads 180 ms one minute and 260 ms the next, and a solve on
// two lockstep ranks feels it about three times as strongly as
// single-threaded code does. A probe of fixed work with the same shape — two
// goroutines, a memory-bound sweep each, a rendezvous per step — tracks that
// drift (correlation 0.97 with warm-sim latency over nine minutes, see
// AA.md), so the gated timings are reported in reference-host units: the
// measured value scaled by probeRef over the run's own median probe time.
// The probe is self-contained on purpose: it calls nothing from the repo, so
// no change to the program can move it.

const (
	probeRows  = 50_000
	probeWidth = 7  // entries per row, a 3-D stencil's worth
	probeSteps = 40 // sweeps per probe, one rendezvous each
	// probeRef is the probe's duration on a quiet host of the bench host's
	// class. It only fixes the unit: with it, a quiet run reads its own wall
	// clock.
	probeRef = 13 * time.Millisecond
	// probeEvery spaces probes inside a measured window; at ~13 ms each they
	// take about 3 % of it, and that time is not counted as the program's.
	probeEvery = 500 * time.Millisecond
)

// hostProbe is the fixed work: y = A·x on a synthetic banded matrix in CSR
// form, rows split between two goroutines.
type hostProbe struct {
	idx  []int32
	val  []float64
	x, y []float64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{
		idx: make([]int32, probeRows*probeWidth),
		val: make([]float64, probeRows*probeWidth),
		x:   make([]float64, probeRows),
		y:   make([]float64, probeRows),
	}
	// Offsets of a 37×37×37 grid's 7-point stencil, clamped at the ends.
	offsets := [probeWidth]int{-1369, -37, -1, 0, 1, 37, 1369}
	for i := 0; i < probeRows; i++ {
		p.x[i] = float64(i%7) * 0.25
		for k, off := range offsets {
			p.idx[i*probeWidth+k] = int32(min(max(i+off, 0), probeRows-1))
			p.val[i*probeWidth+k] = 1 / float64(k+1)
		}
	}
	return p
}

func (p *hostProbe) sweep(lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := i * probeWidth; k < (i+1)*probeWidth; k++ {
			s += p.val[k] * p.x[p.idx[k]]
		}
		p.y[i] = s
	}
}

// run does the fixed work once and returns how long the host took.
func (p *hostProbe) run() time.Duration {
	ping, pong := make(chan struct{}), make(chan struct{})
	t0 := time.Now()
	go func() {
		for i := 0; i < probeSteps; i++ {
			p.sweep(probeRows/2, probeRows)
			ping <- struct{}{}
			<-pong
		}
	}()
	for i := 0; i < probeSteps; i++ {
		p.sweep(0, probeRows/2)
		<-ping
		pong <- struct{}{}
	}
	return time.Since(t0)
}

// hostFactor converts a duration measured while the probes took what they
// took into reference-host units: below 1 when the host was slower than the
// reference.
func hostFactor(probes []time.Duration) float64 {
	if len(probes) == 0 {
		return 1
	}
	return float64(probeRef) / float64(median(probes))
}
