package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fsaicomm"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/testsets"
)

// spaiRecord is one row of the BENCH_spai.json artifact emitted by
// `make bench`: restarted GMRES on the Péclet-skewed convection–diffusion
// instance, unpreconditioned versus the adaptive SPAI right inverse. The
// writer asserts, and the Makefile bench gate therefore enforces, that the
// SPAI-preconditioned solve converges and needs strictly fewer iterations
// than the unpreconditioned baseline on every measured rank count and
// backend.
type spaiRecord struct {
	Matrix  string `json:"matrix"`
	Rows    int    `json:"rows"`
	NNZ     int    `json:"nnz"`
	Precond string `json:"precond"` // none | spai
	Ranks   int    `json:"ranks"`   // 1 = serial
	Backend string `json:"backend"` // serial | sim | tcp
	Restart int    `json:"restart"`

	Iterations  int     `json:"iterations"`
	Converged   bool    `json:"converged"`
	RelResidual float64 `json:"rel_residual"`
	PctNNZ      float64 `json:"pct_nnz_increase,omitempty"` // nnz(M) vs nnz(A), SPAI rows

	NsPerOp         int64 `json:"ns_per_op"` // wall time of one solve
	CommBytes       int64 `json:"comm_bytes,omitempty"`
	CollectiveCalls int64 `json:"collective_calls,omitempty"`
	CollectiveBytes int64 `json:"collective_bytes,omitempty"`
}

// writeSPAIJSON benchmarks the nonsymmetric solver axis on the catalog's
// solver-stressing instance (upwind convection–diffusion at Péclet 50). The
// baseline is plain restarted GMRES(30) with no preconditioner, run through
// the serial Krylov loop directly — the facade deliberately couples Method
// SPAI with Solver GMRES, so an identity-preconditioned facade solve does
// not exist. The SPAI rows run through the public API: one serial solve,
// then prepared solves at 4 and 8 ranks on each requested backend, so the
// artifact also pins the distributed GMRES collective cost per iteration.
func writeSPAIJSON(w io.Writer, backends []string) error {
	const restart = 30
	spec, err := testsets.ByName("convdiff-skew-sim")
	if err != nil {
		return err
	}
	a := spec.Generate()
	b := fsaicomm.GenerateRHS(a, 13)

	// Unpreconditioned baseline: serial GMRES(30), identity preconditioner.
	x := make([]float64, a.Rows)
	start := time.Now()
	st, err := krylov.GMRES(a, b, x, krylov.Identity{}, krylov.Options{Tol: 1e-8, Restart: restart}, nil)
	baseNs := time.Since(start).Nanoseconds()
	if err != nil {
		return fmt.Errorf("unpreconditioned GMRES baseline: %w", err)
	}
	base := spaiRecord{
		Matrix: spec.Name, Rows: a.Rows, NNZ: a.NNZ(),
		Precond: "none", Ranks: 1, Backend: "serial", Restart: restart,
		Iterations: st.Iterations, Converged: st.Converged, RelResidual: st.RelResidual,
		NsPerOp: baseNs,
	}
	recs := []spaiRecord{base}

	opt := fsaicomm.Options{
		Method: fsaicomm.SPAI, Solver: fsaicomm.SolverGMRES,
		Restart: restart, SPAISteps: 2, Tol: 1e-8,
	}
	gate := func(r spaiRecord) error {
		if !r.Converged {
			return fmt.Errorf("spai ranks=%d backend=%s: did not converge (rel residual %g after %d iterations)",
				r.Ranks, r.Backend, r.RelResidual, r.Iterations)
		}
		if r.Iterations >= base.Iterations {
			return fmt.Errorf("spai ranks=%d backend=%s: %d iterations do not beat the unpreconditioned %d",
				r.Ranks, r.Backend, r.Iterations, base.Iterations)
		}
		return nil
	}

	// Serial SPAI through the facade.
	sOpt := opt
	sOpt.Ranks = 1
	start = time.Now()
	res, err := fsaicomm.Solve(a, b, sOpt)
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("serial spai+gmres: %w", err)
	}
	rec := spaiRecord{
		Matrix: spec.Name, Rows: a.Rows, NNZ: a.NNZ(),
		Precond: "spai", Ranks: 1, Backend: "serial", Restart: restart,
		Iterations: res.Iterations, Converged: res.Converged, RelResidual: res.RelResidual,
		PctNNZ: res.PctNNZIncrease, NsPerOp: elapsed.Nanoseconds(),
	}
	if err := gate(rec); err != nil {
		return err
	}
	recs = append(recs, rec)

	// Distributed SPAI: prepared once per rank count, solved per backend.
	for _, ranks := range []int{4, 8} {
		dOpt := opt
		dOpt.Ranks = ranks
		p, err := fsaicomm.Prepare(a, dOpt)
		if err != nil {
			return fmt.Errorf("prepare spai at %d ranks: %w", ranks, err)
		}
		for _, backend := range backends {
			start := time.Now()
			res, err := p.Solve(context.Background(), b, fsaicomm.SolveOptions{Transport: backend})
			elapsed := time.Since(start)
			if err != nil {
				return fmt.Errorf("spai ranks=%d backend=%s: %w", ranks, backend, err)
			}
			rec := spaiRecord{
				Matrix: spec.Name, Rows: a.Rows, NNZ: a.NNZ(),
				Precond: "spai", Ranks: ranks, Backend: backend, Restart: restart,
				Iterations: res.Iterations, Converged: res.Converged, RelResidual: res.RelResidual,
				PctNNZ:          res.PctNNZIncrease,
				NsPerOp:         elapsed.Nanoseconds(),
				CommBytes:       res.CommBytes,
				CollectiveCalls: res.CollectiveCalls,
				CollectiveBytes: res.CollectiveBytes,
			}
			if err := gate(rec); err != nil {
				return err
			}
			recs = append(recs, rec)
		}
		p.Close() // ends the rank workers a tcp row left resident
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
