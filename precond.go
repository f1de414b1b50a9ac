package fsaicomm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fsaicomm/internal/core"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/sparse"
)

// Preconditioner is a built approximate inverse that can be applied to many
// right-hand sides (serial): the factorized GᵀG ≈ A⁻¹ of the FSAI family, or
// the explicit right inverse M ≈ A⁻¹ of SPAI. Build once with
// BuildPreconditioner, then call SolveWith per system, or Apply to use it
// inside a custom solver.
type Preconditioner struct {
	a      *Matrix
	split  *krylov.Split
	method Method
	// prec FP32 makes SolveWith run the mixed-precision refinement loop over
	// the float32 narrowing of the factors.
	prec Precision
	// inv is the explicit SPAI inverse (Method SPAI only; split is then
	// nil) and restart the GMRES cycle length SolveWith uses.
	inv     *Matrix
	restart int
	pct     float64
	setup   time.Duration
	// work holds the Krylov iteration vectors across SolveWith calls, so
	// repeated solves with the same factor allocate no per-solve buffers
	// (beyond the returned solution). Part of why the Preconditioner is
	// documented as sequential-reuse only.
	work krylov.Workspace
}

// BuildPreconditioner constructs the selected variant for matrix a once.
// The returned Preconditioner is safe for sequential reuse across solves
// (not for concurrent Apply calls; it owns scratch buffers). Method SPAI
// (with Solver SolverGMRES) builds the explicit inverse of a general square
// matrix; the FSAI family requires symmetry. The build is the one Prepare
// runs, on a world of one rank.
func BuildPreconditioner(a *Matrix, opt Options) (*Preconditioner, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkInputMatrix(a, opt.Solver); err != nil {
		return nil, err
	}
	return buildPreconditioner(a, opt.withDefaults(a.Rows))
}

// buildPreconditioner is BuildPreconditioner on checked input and options
// with their defaults applied.
func buildPreconditioner(a *Matrix, opt Options) (*Preconditioner, error) {
	t0 := time.Now()
	bd, err := core.BuildOneRank(a, buildConfig(opt))
	if err != nil {
		return nil, err
	}
	p := &Preconditioner{a: a, method: opt.Method, prec: opt.Precision, restart: opt.Restart,
		inv: bd.MRows, pct: bd.PctNNZIncrease, setup: time.Since(t0)}
	if bd.MRows == nil {
		p.split = krylov.NewSplit(bd.GRows, bd.GTRows)
	}
	return p, nil
}

func checkInputMatrix(a *Matrix, solver Solver) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("fsaicomm: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	if err := a.Validate(); err != nil {
		return fmt.Errorf("fsaicomm: invalid matrix: %w", err)
	}
	if !a.IsFinite() {
		return fmt.Errorf("%w: matrix contains NaN or Inf values", ErrInvalidOptions)
	}
	return checkSolverMatrix(a, solver)
}

// Method returns the preconditioner variant that was built.
func (p *Preconditioner) Method() Method { return p.method }

// PctNNZIncrease returns the pattern growth versus the FSAI baseline.
func (p *Preconditioner) PctNNZIncrease() float64 { return p.pct }

// SetupTime returns the wall-clock construction time.
func (p *Preconditioner) SetupTime() time.Duration { return p.setup }

// Factor returns the lower-triangular factor G (GᵀG ≈ A⁻¹) of an FSAI-family
// preconditioner, or the explicit inverse M of an SPAI one. The returned
// matrix is shared; do not mutate it.
func (p *Preconditioner) Factor() *Matrix {
	if p.inv != nil {
		return p.inv
	}
	return p.split.G
}

// Apply computes the preconditioning operation: z = Gᵀ(G·r) for the FSAI
// family, z = M·r for SPAI.
func (p *Preconditioner) Apply(r, z []float64) {
	if len(r) != p.a.Rows || len(z) != p.a.Rows {
		panic(fmt.Sprintf("fsaicomm: Apply length %d/%d, want %d", len(r), len(z), p.a.Rows))
	}
	if p.inv != nil {
		p.inv.MulVec(r, z)
		return
	}
	p.split.Apply(r, z, nil)
}

// SolveWith runs the preconditioned Krylov solve of A·x = b reusing the
// built preconditioner: CG (the FP64 refinement loop around it for an FP32
// factor) or GMRES for SPAI. Of opt it reads Tol, MaxIter, Restart (0 keeps
// the build-time value) and Trace; the set-up fields are ignored, since the
// preconditioner is fixed. Per-solve fields that Validate rejects get an
// ErrInvalidOptions-wrapped error, as at every other entry point.
func (p *Preconditioner) SolveWith(b []float64, opt Options) (*Result, error) {
	if err := perSolve(opt).Validate(); err != nil {
		return nil, err
	}
	return p.solve(context.TODO(), b, opt)
}

// solve is the one-process solve behind Solve and SolveWith. It runs the
// distributed loops on one rank and reuses the preconditioner's workspace.
func (p *Preconditioner) solve(ctx context.Context, b []float64, opt Options) (*Result, error) {
	if len(b) != p.a.Rows {
		return nil, fmt.Errorf("fsaicomm: rhs length %d, want %d", len(b), p.a.Rows)
	}
	if err := checkFiniteRHS(b); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(p.a.Rows)
	if opt.Restart <= 0 {
		opt.Restart = p.restart
	}
	x := make([]float64, p.a.Rows)
	t0 := time.Now()
	kopt := krylov.Options{Tol: opt.Tol, MaxIter: opt.MaxIter, Restart: opt.Restart, Trace: opt.Trace, Ctx: ctx, Work: &p.work}
	var st krylov.Stats
	var err error
	switch {
	case p.inv != nil:
		st, err = krylov.GMRES(p.a, b, x, &krylov.MatPrecond{M: p.inv}, kopt, nil)
	case p.prec == FP32:
		st, err = krylov.SolveRefined(p.a, b, x, p.split, kopt, nil)
	default:
		st, err = krylov.CG(p.a, b, x, p.split, kopt, nil)
	}
	canceled := errors.Is(err, krylov.ErrCanceled)
	broken := errors.Is(err, krylov.ErrBreakdown)
	if err != nil && !errors.Is(err, krylov.ErrNoConvergence) && !canceled && !broken {
		return nil, err
	}
	res := &Result{
		X:              x,
		Iterations:     st.Iterations,
		Converged:      st.Converged,
		RelResidual:    st.RelResidual,
		Refinements:    st.Refinements,
		PctNNZIncrease: p.pct,
		Ranks:          1,
		ImbalanceIndex: 1,
		SetupTime:      p.setup,
		SolveTime:      time.Since(t0),
		Trace:          st.Trace,
	}
	if canceled || broken {
		return res, err
	}
	return res, nil
}

// Pattern returns the sparsity pattern of the factor (FSAI family) or the
// explicit inverse (SPAI) for inspection.
func (p *Preconditioner) Pattern() *sparse.Pattern { return sparse.PatternOf(p.Factor()) }
