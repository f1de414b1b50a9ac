// Package archmodel describes the three evaluation architectures of the
// paper (Intel Skylake, Fujitsu A64FX, AMD Zen 2) as parameter profiles and
// provides the per-iteration cost model that stands in for wall-clock time
// in the reproduced tables.
//
// The paper's method consumes exactly one architectural parameter — the
// cache-line size (64 B on Skylake and Zen 2, 256 B on A64FX) — which is why
// A64FX shows the largest gains. The rest of the profile (L1 geometry, flop
// rate, interconnect α/β) feeds a max-over-ranks time model:
//
//	iterTime = max over ranks of ( flops/rate + misses·missPenalty
//	                               + msgs·α + bytes·β )
//	solveTime = iterations · iterTime
//
// Counted flops come from the solver's FlopCounter, misses from the
// deterministic cache simulator, and bytes/messages from the metered
// runtime, so the model is exactly reproducible. Absolute times are not
// meant to match the paper's hardware; relative comparisons between methods
// (the content of every table) are.
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
	// AlphaSec and BetaSecPerByte are the INTER-NODE interconnect
	// latency/bandwidth cost parameters — the network crossing between
	// compute nodes. They price RankCost.CommMsgs/CommBytes, which under a
	// flat topology is all point-to-point traffic (the historical meaning).
	AlphaSec       float64
	BetaSecPerByte float64
	// IntraAlphaSec and IntraBetaSecPerByte price INTRA-NODE messages —
	// ranks sharing a node exchange through shared memory, which is an
	// order of magnitude cheaper in latency and several in bandwidth than
	// the network (the asymmetry the Bienz–Gropp–Olson node-aware exchange
	// exploits). They apply to RankCost.IntraCommMsgs/IntraCommBytes, which
	// are zero under a flat topology, leaving every historical model output
	// bit-identical.
	IntraAlphaSec       float64
	IntraBetaSecPerByte float64
	// CoresPerProcess is the default hybrid configuration (the paper uses
	// 8 threads per MPI process in the main campaign).
	CoresPerProcess int
}

// The three evaluation systems of §5.1. Rates are effective sparse-kernel
// figures, not peaks; they only scale the model's time unit.
var (
	Skylake = Profile{
		Name:                "skylake",
		LineBytes:           64,
		L1Bytes:             32 * 1024,
		L1Ways:              8,
		FlopsPerSec:         4.0e9,
		MemBWPerCore:        5.0e9,
		MissPenaltySec:      5.0e-9,
		AlphaSec:            1.5e-6,
		BetaSecPerByte:      8.0e-11,
		IntraAlphaSec:       3.0e-7,
		IntraBetaSecPerByte: 1.0e-11,
		CoresPerProcess:     8,
	}
	A64FX = Profile{
		Name:                "a64fx",
		LineBytes:           256,
		L1Bytes:             64 * 1024,
		L1Ways:              4,
		FlopsPerSec:         5.0e9,
		MemBWPerCore:        18.0e9,
		MissPenaltySec:      8.0e-9,
		AlphaSec:            1.0e-6,
		BetaSecPerByte:      4.0e-11,
		IntraAlphaSec:       2.0e-7,
		IntraBetaSecPerByte: 5.0e-12,
		CoresPerProcess:     12,
	}
	Zen2 = Profile{
		Name:                "zen2",
		LineBytes:           64,
		L1Bytes:             32 * 1024,
		L1Ways:              8,
		FlopsPerSec:         4.5e9,
		MemBWPerCore:        3.5e9,
		MissPenaltySec:      4.5e-9,
		AlphaSec:            1.3e-6,
		BetaSecPerByte:      5.0e-11,
		IntraAlphaSec:       2.5e-7,
		IntraBetaSecPerByte: 8.0e-12,
		CoresPerProcess:     8,
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
// inter-node (network) traffic; IntraCommBytes/IntraCommMsgs is same-node
// (shared-memory) traffic, zero whenever no two-level topology is in play.
type RankCost struct {
	Flops          int64
	StreamBytes    int64 // matrix + vector bytes streamed from memory
	CacheMisses    int64
	CommBytes      int64
	CommMsgs       int64
	IntraCommBytes int64
	IntraCommMsgs  int64
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

// CommTime returns only the interconnect terms of the model, the
// hierarchical α–β cost pricing each level with its own parameters:
//
//	α·msgs + β·bytes + α_intra·intraMsgs + β_intra·intraBytes
//
// With no intra-node traffic (every flat-topology cost) this is exactly the
// historical single-level α–β cost.
func (p Profile) CommTime(rc RankCost) float64 {
	t := float64(rc.CommMsgs)*p.AlphaSec + float64(rc.CommBytes)*p.BetaSecPerByte
	if rc.IntraCommMsgs != 0 || rc.IntraCommBytes != 0 {
		t += float64(rc.IntraCommMsgs)*p.IntraAlphaSec + float64(rc.IntraCommBytes)*p.IntraBetaSecPerByte
	}
	return t
}

// Time converts a rank cost into modeled seconds with communication fully
// exposed (no overlap credit): ComputeTime + CommTime.
func (p Profile) Time(rc RankCost) float64 {
	return p.ComputeTime(rc) + p.CommTime(rc)
}

// CommWindow is one communication phase of an iteration paired with the
// compute the schedule runs while that traffic is in flight. The α–β cost
// of the phase is charged only to the extent it exceeds the hiding compute:
//
//	exposed(window) = max(0, CommTime(Comm) − ComputeTime(Hide))
//
// Hide must be a portion of the iteration's total compute, and the Hide
// windows of one OverlapCost must be disjoint portions — each flop can hide
// at most one phase. The builders in internal/experiments carve the
// iteration's compute accordingly (interior SpMV rows hide the halo
// exchange; the preconditioner application hides the pipelined reduction).
type CommWindow struct {
	// Name labels the phase in reports ("halo", "reduction").
	Name string
	// Comm carries the phase's interconnect traffic (CommMsgs/CommBytes);
	// compute fields are ignored.
	Comm RankCost
	// Hide carries the compute available during the phase (Flops,
	// StreamBytes, CacheMisses); comm fields are ignored.
	Hide RankCost
}

// OverlapCost is one rank's per-iteration cost split the way an overlapping
// schedule executes it: all compute, communication that no schedule can
// hide, and the hideable communication phases with their hiding windows.
type OverlapCost struct {
	// Compute is the iteration's total on-node work (the Hide windows are
	// portions of it, not additions).
	Compute RankCost
	// Exposed is communication serialized against everything (e.g. the
	// blocking reductions of the classic and fused loops).
	Exposed RankCost
	// Windows are the overlappable communication phases.
	Windows []CommWindow
}

// OverlapTime models one iteration of an overlapping schedule:
//
//	time = compute + exposed + Σ max(0, comm(w) − compute(w.Hide))
//
// The simulated runtime serializes goroutines and therefore cannot exhibit
// overlap in wall-clock terms; this credit term is how the metered traffic
// becomes the time a real network would see (DESIGN.md §4d).
func (p Profile) OverlapTime(oc OverlapCost) float64 {
	t := p.ComputeTime(oc.Compute) + p.CommTime(oc.Exposed)
	for _, w := range oc.Windows {
		if ex := p.CommTime(w.Comm) - p.ComputeTime(w.Hide); ex > 0 {
			t += ex
		}
	}
	return t
}

// WindowReport is one communication window's share of an iteration's
// modeled time: the raw α–β cost of its traffic, the compute available to
// hide it, the credit actually taken, and the exposed remainder. Hidden is
// defined as Raw − Exposed, so the split is exact by construction.
type WindowReport struct {
	Name       string  `json:"window"`
	RawSec     float64 `json:"raw_s"`        // α–β time of the window's traffic
	HideAvail  float64 `json:"hide_avail_s"` // compute time available to hide it
	HiddenSec  float64 `json:"hidden_s"`     // min(raw, available) — the credit
	ExposedSec float64 `json:"exposed_s"`    // raw − hidden, charged to the iteration
}

// OverlapReport is the per-window breakdown of OverlapTime for one rank's
// iteration cost. TotalSec is accumulated with the identical operation
// order as OverlapTime, so the two are bit-for-bit equal — the breakdown
// reconciles exactly with the scalar modeled time it explains.
type OverlapReport struct {
	ComputeSec float64        `json:"compute_s"`      // on-node work
	ExposedSec float64        `json:"exposed_comm_s"` // unwindowed (always-exposed) comm
	Windows    []WindowReport `json:"windows"`
	TotalSec   float64        `json:"total_s"` // == OverlapTime(oc)
}

// OverlapReport decomposes OverlapTime(oc) into its per-window terms.
func (p Profile) OverlapReport(oc OverlapCost) OverlapReport {
	rep := OverlapReport{
		ComputeSec: p.ComputeTime(oc.Compute),
		ExposedSec: p.CommTime(oc.Exposed),
		Windows:    make([]WindowReport, 0, len(oc.Windows)),
	}
	// Accumulate exactly as OverlapTime does (same subexpressions, same
	// order) so TotalSec matches it bit-for-bit.
	t := p.ComputeTime(oc.Compute) + p.CommTime(oc.Exposed)
	for _, w := range oc.Windows {
		wr := WindowReport{
			Name:      w.Name,
			RawSec:    p.CommTime(w.Comm),
			HideAvail: p.ComputeTime(w.Hide),
		}
		if ex := p.CommTime(w.Comm) - p.ComputeTime(w.Hide); ex > 0 {
			wr.ExposedSec = ex
			t += ex
		}
		wr.HiddenSec = wr.RawSec - wr.ExposedSec
		rep.Windows = append(rep.Windows, wr)
	}
	rep.TotalSec = t
	return rep
}

// Scale returns the report with every time multiplied by f — e.g. the
// iteration count, turning a per-iteration breakdown into a per-solve one.
func (r OverlapReport) Scale(f float64) OverlapReport {
	out := r
	out.ComputeSec *= f
	out.ExposedSec *= f
	out.TotalSec *= f
	out.Windows = make([]WindowReport, len(r.Windows))
	for i, w := range r.Windows {
		w.RawSec *= f
		w.HideAvail *= f
		w.HiddenSec *= f
		w.ExposedSec *= f
		out.Windows[i] = w
	}
	return out
}

// SolveTimeOverlapped returns the modeled time of a solve under an
// overlapping schedule: iterations times the slowest rank's OverlapTime
// (the reduction still synchronizes ranks once per iteration, so the
// maximum governs).
func (p Profile) SolveTimeOverlapped(iters int, perRank []OverlapCost) float64 {
	worst := 0.0
	for _, oc := range perRank {
		if t := p.OverlapTime(oc); t > worst {
			worst = t
		}
	}
	return float64(iters) * worst
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
