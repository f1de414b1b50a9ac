// Package archmodel describes the three evaluation architectures of the
// paper (Intel Skylake, Fujitsu A64FX, AMD Zen 2) as parameter profiles and
// provides the per-iteration cost model that stands in for wall-clock time
// in the reproduced tables.
//
// The paper's method consumes exactly one architectural parameter — the
// cache-line size (64 B on Skylake and Zen 2, 256 B on A64FX) — which is why
// A64FX shows the largest gains. The rest of the profile (L1 geometry, flop
// rate, memory bandwidth, the interconnect α/β) feeds a
// max-over-ranks time model, evaluated by OverlapReport alone:
//
//	compute(c) = flops/(rate·cores) + streamBytes/(bw·cores) + misses·missPenalty
//	comm(c)    = msgs·α + bytes·β
//	iterTime   = compute(rank) + Σ over windows w of comm(w.Comm)
//	solveTime  = iterations · max over ranks of iterTime
//
// A window is one communication phase of the iteration; every collective
// and every product blocks, so each is waited out in full. Flops, streamed bytes, bytes and
// messages are counted from the operators and the loop, and misses come from
// the deterministic cache simulator, so the model is exactly reproducible.
// Absolute times are not meant to match the paper's hardware; relative
// comparisons between methods (the content of every table) are.
package archmodel

import (
	"fmt"

	"fsaicomm/internal/cache"
)

// Profile is one target architecture.
type Profile struct {
	Name string
	// LineBytes is the cache-line size, the parameter the pattern
	// extension algorithm keys on.
	LineBytes int
	// L1Bytes and L1Ways give the per-core L1 data cache geometry.
	L1Bytes, L1Ways int
	// FlopsPerSec is the effective per-core rate for memory-bound sparse
	// kernels (not peak).
	FlopsPerSec float64
	// MemBWPerCore is the effective per-core memory bandwidth (bytes/s)
	// charged for streaming the matrix entries and vectors — the dominant
	// cost of SpMV. More stored entries cost real time through this term,
	// which is what makes load imbalance matter (§5.3.3).
	MemBWPerCore float64
	// MissPenaltySec is the added latency charged per simulated L1 miss.
	MissPenaltySec float64
	// AlphaSec and BetaSecPerByte are the interconnect latency/bandwidth
	// cost parameters. They price RankCost.CommMsgs/CommBytes, all
	// point-to-point traffic.
	AlphaSec       float64
	BetaSecPerByte float64
	// CoresPerProcess is the default hybrid configuration (the paper uses
	// 8 threads per MPI process in the main campaign).
	CoresPerProcess int
}

// The three evaluation systems of §5.1. Rates are effective sparse-kernel
// figures, not peaks; they only scale the model's time unit.
var (
	Skylake = Profile{
		Name:            "skylake",
		LineBytes:       64,
		L1Bytes:         32 * 1024,
		L1Ways:          8,
		FlopsPerSec:     4.0e9,
		MemBWPerCore:    5.0e9,
		MissPenaltySec:  5.0e-9,
		AlphaSec:        1.5e-6,
		BetaSecPerByte:  8.0e-11,
		CoresPerProcess: 8,
	}
	A64FX = Profile{
		Name:            "a64fx",
		LineBytes:       256,
		L1Bytes:         64 * 1024,
		L1Ways:          4,
		FlopsPerSec:     5.0e9,
		MemBWPerCore:    18.0e9,
		MissPenaltySec:  8.0e-9,
		AlphaSec:        1.0e-6,
		BetaSecPerByte:  4.0e-11,
		CoresPerProcess: 12,
	}
	Zen2 = Profile{
		Name:            "zen2",
		LineBytes:       64,
		L1Bytes:         32 * 1024,
		L1Ways:          8,
		FlopsPerSec:     4.5e9,
		MemBWPerCore:    3.5e9,
		MissPenaltySec:  4.5e-9,
		AlphaSec:        1.3e-6,
		BetaSecPerByte:  5.0e-11,
		CoresPerProcess: 8,
	}
)

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	switch name {
	case "skylake":
		return Skylake, nil
	case "a64fx":
		return A64FX, nil
	case "zen2":
		return Zen2, nil
	default:
		return Profile{}, fmt.Errorf("archmodel: unknown architecture %q (want skylake, a64fx or zen2)", name)
	}
}

// WithCoresPerProcess returns a copy of the profile with the hybrid
// configuration changed (Table 4 sweeps 1/2/4/8/48 cores per process).
func (p Profile) WithCoresPerProcess(cores int) Profile {
	if cores < 1 {
		panic(fmt.Sprintf("archmodel: cores per process %d < 1", cores))
	}
	p.CoresPerProcess = cores
	return p
}

// NewProcessCache builds the cache simulator for one simulated process: the
// aggregate L1 capacity of its cores (more threads per process leave more
// cache for the process's working set — the effect Table 4 measures).
func (p Profile) NewProcessCache() *cache.Cache {
	capacity := p.L1Bytes * p.CoresPerProcess
	// Keep set count a power of two: scale capacity to the next power-of-two
	// multiple of line*ways if needed.
	lw := p.LineBytes * p.L1Ways
	sets := capacity / lw
	pow := 1
	for pow*2 <= sets {
		pow *= 2
	}
	return cache.MustNew(pow*lw, p.LineBytes, p.L1Ways)
}

// RankCost aggregates one rank's per-iteration work. CommBytes/CommMsgs is
// its point-to-point traffic.
type RankCost struct {
	Flops       int64
	StreamBytes int64 // matrix + vector bytes streamed from memory
	CacheMisses int64
	CommBytes   int64
	CommMsgs    int64
}

// ComputeTime returns only the on-node terms of the model: flop rate,
// memory streaming and cache-miss latency. The process runs CoresPerProcess
// cores, so the flop and stream terms are divided by the aggregate rate;
// miss latency is serialized per process.
func (p Profile) ComputeTime(rc RankCost) float64 {
	cores := float64(p.CoresPerProcess)
	return float64(rc.Flops)/(p.FlopsPerSec*cores) +
		float64(rc.StreamBytes)/(p.MemBWPerCore*cores) +
		float64(rc.CacheMisses)*p.MissPenaltySec
}

// CommTime returns only the interconnect terms of the model, the α–β cost
// α·msgs + β·bytes.
func (p Profile) CommTime(rc RankCost) float64 {
	return float64(rc.CommMsgs)*p.AlphaSec + float64(rc.CommBytes)*p.BetaSecPerByte
}

// Time converts a rank cost into modeled seconds: ComputeTime + CommTime.
func (p Profile) Time(rc RankCost) float64 {
	return p.ComputeTime(rc) + p.CommTime(rc)
}

// CommWindow is one communication phase of an iteration, charged its α–β
// cost CommTime(Comm) in full: every operation of every loop blocks.
type CommWindow struct {
	// Name labels the phase in reports ("halo", "reduction").
	Name string
	// Comm carries the phase's interconnect traffic (CommMsgs/CommBytes);
	// compute fields are ignored.
	Comm RankCost
}

// OverlapCost is one rank's per-iteration cost split the way a schedule
// executes it: all compute, and every communication phase.
type OverlapCost struct {
	// Compute is the iteration's total on-node work.
	Compute RankCost
	// Windows are the iteration's communication phases.
	Windows []CommWindow
}

// WindowReport is one communication window's share of an iteration's
// modeled time: the α–β cost of its traffic.
type WindowReport struct {
	Name   string  `json:"window"`
	RawSec float64 `json:"raw_s"` // α–β time of the window's traffic
}

// OverlapReport is one rank's modeled iteration, window by window.
type OverlapReport struct {
	ComputeSec float64        `json:"compute_s"` // on-node work
	Windows    []WindowReport `json:"windows"`
	TotalSec   float64        `json:"total_s"` // compute + every window's α–β time
}

// OverlapReport evaluates the model on one rank's iteration cost:
//
//	TotalSec = compute + Σ comm(w)
func (p Profile) OverlapReport(oc OverlapCost) OverlapReport {
	rep := OverlapReport{
		ComputeSec: p.ComputeTime(oc.Compute),
		Windows:    make([]WindowReport, 0, len(oc.Windows)),
	}
	rep.TotalSec = rep.ComputeSec
	for _, w := range oc.Windows {
		wr := WindowReport{Name: w.Name, RawSec: p.CommTime(w.Comm)}
		rep.TotalSec += wr.RawSec
		rep.Windows = append(rep.Windows, wr)
	}
	return rep
}

// Scale returns the report with every time multiplied by f — e.g. the
// iteration count, turning a per-iteration breakdown into a per-solve one.
func (r OverlapReport) Scale(f float64) OverlapReport {
	out := r
	out.ComputeSec *= f
	out.TotalSec *= f
	out.Windows = make([]WindowReport, len(r.Windows))
	for i, w := range r.Windows {
		w.RawSec *= f
		out.Windows[i] = w
	}
	return out
}

// GFlopsPerProcess returns the modeled GFLOP/s a process achieves on work
// rc (used for the preconditioning-product histograms, Figures 3b/5b/7).
func (p Profile) GFlopsPerProcess(rc RankCost) float64 {
	t := p.Time(rc)
	if t == 0 {
		return 0
	}
	return float64(rc.Flops) / t / 1e9
}
