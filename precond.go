package fsaicomm

import (
	"context"
	"fmt"
	"time"

	"fsaicomm/internal/sparse"
)

// Preconditioner is a built approximate inverse that can be applied to many
// right-hand sides on one process: the factorized GᵀG ≈ A⁻¹ of the FSAI
// family, or the explicit right inverse M ≈ A⁻¹ of SPAI. Build once with
// BuildPreconditioner, then call SolveWith per system, or Apply to use it
// inside a custom solver. It is a Prepared system of one rank: SolveWith is
// safe for concurrent use, as Prepared.Solve is; Apply is not, because it
// owns scratch.
type Preconditioner struct {
	one *Prepared // of one rank
	w   []float64 // Apply's scratch: G·r
}

// BuildPreconditioner constructs the selected variant for matrix a once.
// Method SPAI (with Solver SolverGMRES) builds the explicit inverse of a
// general square matrix; the FSAI family requires symmetry. Options are
// checked as at every entry point; the build is the one Prepare runs, on a
// world of one rank.
func BuildPreconditioner(a *Matrix, opt Options) (*Preconditioner, error) {
	setup, err := opt.setUp(a, false)
	if err != nil {
		return nil, err
	}
	return buildPreconditioner(a, setup, opt.Workers)
}

// buildPreconditioner is BuildPreconditioner on checked input: it prepares
// the canonical set-up group on one rank with the worker pool.
func buildPreconditioner(a *Matrix, setup Options, workers int) (*Preconditioner, error) {
	setup.Ranks = 1
	p, err := prepare(a, setup, workers)
	if err != nil {
		return nil, err
	}
	return &Preconditioner{one: p}, nil
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
func (p *Preconditioner) Method() Method { return p.one.st.opt.Method }

// PctNNZIncrease returns the pattern growth versus the FSAI baseline.
func (p *Preconditioner) PctNNZIncrease() float64 { return p.one.pct }

// SetupTime returns the wall-clock construction time.
func (p *Preconditioner) SetupTime() time.Duration { return p.one.setup }

// Factor returns the lower-triangular factor G (GᵀG ≈ A⁻¹) of an FSAI-family
// preconditioner, or the explicit inverse M of an SPAI one, in the caller's
// row order (one rank keeps every row in place). The returned matrix is
// shared; do not mutate it.
func (p *Preconditioner) Factor() *Matrix {
	ops := p.one.parts[0]
	if ops.M != nil {
		return ops.M.LZ.M
	}
	return ops.G.LZ.M
}

// Apply computes the preconditioning operation: z = Gᵀ(G·r) for the FSAI
// family, z = M·r for SPAI.
func (p *Preconditioner) Apply(r, z []float64) {
	n := p.one.n
	if len(r) != n || len(z) != n {
		panic(fmt.Sprintf("fsaicomm: Apply length %d/%d, want %d", len(r), len(z), n))
	}
	ops := p.one.parts[0]
	if ops.M != nil {
		ops.M.LZ.M.MulVec(r, z)
		return
	}
	if p.w == nil {
		p.w = make([]float64, n)
	}
	ops.G.LZ.M.MulVec(r, p.w)
	ops.GT.LZ.M.MulVec(p.w, z)
}

// SolveWith runs the preconditioned Krylov solve of A·x = b reusing the
// built preconditioner: Prepared.Solve on its one rank. Of opt it reads the
// per-solve group, each field meaning what it means there, but the
// transport, which a one-process solve has no use for; the set-up fields are ignored, since the preconditioner is fixed.
// Options that Validate rejects and a right-hand side that is not finite get
// an ErrInvalidOptions-wrapped error, as at every other entry point.
// Result.SetupTime is the build's.
func (p *Preconditioner) SolveWith(b []float64, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return p.solve(context.TODO(), b, opt.SolveOptions())
}

// solve is the one-process solve behind Solve and SolveWith: the one rank's
// Prepared.Solve, without a transport to read.
func (p *Preconditioner) solve(ctx context.Context, b []float64, so SolveOptions) (*Result, error) {
	so.Transport = ""
	res, err := p.one.Solve(ctx, b, so)
	if res != nil {
		res.SetupTime = p.one.setup
	}
	return res, err
}

// Pattern returns the sparsity pattern of the factor (FSAI family) or the
// explicit inverse (SPAI) for inspection.
func (p *Preconditioner) Pattern() *sparse.Pattern { return sparse.PatternOf(p.Factor()) }
