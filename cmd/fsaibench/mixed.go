package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fsaicomm"
	"fsaicomm/internal/experiments"
)

// mixedRecord is one row of the BENCH_mixed.json artifact emitted by
// `make bench`: the same prepared solve run once with FP64 factors and once
// with float32 factors wrapped in the FP64 iterative-refinement outer loop,
// on each requested rank backend. The halo traffic of the inner solves
// narrows to 4 bytes per value under fp32, so comm_bytes — all metered
// point-to-point traffic, including the FP64 residual exchanges of the
// refinement loop — must land well under the fp64 row's. The writer asserts,
// and the Makefile bench gate therefore enforces, that fp32 halo bytes stay
// below 0.55x of fp64 and that the refined solve still reaches the FP64
// tolerance.
type mixedRecord struct {
	Matrix    string `json:"matrix"`
	Rows      int    `json:"rows"`
	NNZ       int    `json:"nnz"`
	Variant   string `json:"variant"`
	Ranks     int    `json:"ranks"`
	Backend   string `json:"backend"`   // sim | tcp
	Precision string `json:"precision"` // fp64 | fp32

	Iterations  int     `json:"iterations"`
	Refinements int     `json:"refinements,omitempty"` // FP64 outer corrections (fp32 only)
	Converged   bool    `json:"converged"`
	RelResidual float64 `json:"rel_residual"`

	NsPerOp         int64 `json:"ns_per_op"` // wall time of one prepared solve
	CommBytes       int64 `json:"comm_bytes"`
	CollectiveCalls int64 `json:"collective_calls"`
	CollectiveBytes int64 `json:"collective_bytes"`
}

// mixedHaloGate is the regression bound enforced on the byte-gated
// (variant, backend) pairs: fp32 point-to-point bytes must stay below this
// fraction of fp64's. The theoretical floor is 0.5 (4-byte halo values); the
// slack above it pays for the FP64 residual halo exchange of each refinement
// step and the few extra inner iterations the narrowed operator costs.
const mixedHaloGate = 0.55

// writeMixedJSON benchmarks fp32 factors + FP64 iterative refinement against
// the pure FP64 baseline at 8 ranks on each requested backend, on the 50k-row
// bench instance (the refinement loop's fixed outer cost — one FP64 residual
// exchange per step — amortizes over the iteration count, so the gate
// measures a solve long enough to be representative). Precision is a
// setup-level option — the factors are narrowed once per Prepare — so each
// precision pays its own setup and the rows isolate the per-solve cost and
// traffic of the precision choice.
//
// The byte gate applies to classic and fused CG, whose FP64 iteration-vector
// recurrences stay accurate enough for the inner fp32 solve to reach the
// refinement target in one deep pass. Pipelined CG is measured and emitted
// but not byte-gated: its deeply drifted recurrence needs periodic residual
// replacement under fp32, and each replacement refreshes the whole recurrence
// family — about three iterations' worth of halo traffic — which pins it near
// 0.6x rather than 0.5x. Its rows still assert convergence to the FP64
// tolerance.
func writeMixedJSON(w io.Writer, backends []string) error {
	const ranks = 8
	spec := experiments.BenchSpec()
	a := spec.Generate()
	b := fsaicomm.GenerateRHS(a, 11)
	variants := []struct {
		v        fsaicomm.CGVariant
		byteGate bool
	}{
		{fsaicomm.CGClassic, true},
		{fsaicomm.CGFused, true},
		{fsaicomm.CGPipelined, false},
	}

	prepared := map[fsaicomm.Precision]*fsaicomm.Prepared{}
	for _, prec := range []fsaicomm.Precision{fsaicomm.FP64, fsaicomm.FP32} {
		p, err := fsaicomm.Prepare(a, fsaicomm.Options{
			Method: fsaicomm.FSAI, Ranks: ranks, Precision: prec,
		})
		if err != nil {
			return fmt.Errorf("prepare %v at %d ranks: %w", prec, ranks, err)
		}
		prepared[prec] = p
		defer p.Close()
	}

	var recs []mixedRecord
	for _, vt := range variants {
		v := vt.v
		for _, backend := range backends {
			var pair [2]mixedRecord
			for i, prec := range []fsaicomm.Precision{fsaicomm.FP64, fsaicomm.FP32} {
				so := fsaicomm.SolveOptions{CGVariant: v, Transport: backend}
				start := time.Now()
				res, err := prepared[prec].Solve(context.Background(), b, so)
				elapsed := time.Since(start)
				if err != nil {
					return fmt.Errorf("%s %v %v: %w", backend, v, prec, err)
				}
				pair[i] = mixedRecord{
					Matrix: spec.Name, Rows: a.Rows, NNZ: a.NNZ(),
					Variant: v.String(), Ranks: ranks,
					Backend: backend, Precision: prec.String(),
					Iterations: res.Iterations, Refinements: res.Refinements,
					Converged: res.Converged, RelResidual: res.RelResidual,
					NsPerOp:         elapsed.Nanoseconds(),
					CommBytes:       res.CommBytes,
					CollectiveCalls: res.CollectiveCalls,
					CollectiveBytes: res.CollectiveBytes,
				}
			}
			f64, f32 := pair[0], pair[1]
			// Accuracy gate: refinement must recover the FP64 tolerance, not
			// merely finish.
			if !f64.Converged {
				return fmt.Errorf("%s %v: fp64 baseline did not converge", backend, v)
			}
			if !f32.Converged {
				return fmt.Errorf("%s %v: fp32 refined solve did not converge (rel residual %g after %d refinements)",
					backend, v, f32.RelResidual, f32.Refinements)
			}
			// Traffic gate: the inner iterations dominate, so narrowing the
			// halo to float32 must cut point-to-point bytes near in half.
			if limit := int64(mixedHaloGate * float64(f64.CommBytes)); vt.byteGate && f32.CommBytes > limit {
				return fmt.Errorf("%s %v: fp32 halo bytes %d exceed %.2fx of fp64's %d (limit %d)",
					backend, v, f32.CommBytes, mixedHaloGate, f64.CommBytes, limit)
			}
			recs = append(recs, f64, f32)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
