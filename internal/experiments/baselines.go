package experiments

import (
	"fmt"
	"io"

	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

// BaselineRow compares the distributed preconditioner landscape on one
// matrix: unpreconditioned CG, Jacobi, block-Jacobi-IC(0) (each rank
// factors its diagonal block; quality decays with rank count), FSAI, and
// FSAIE-Comm — the context the paper's introduction sets up when it calls
// FSAI "a highly parallel option".
type BaselineRow struct {
	Spec       testsets.Spec
	Ranks      int
	Iterations map[string]int
}

var baselineVariants = []string{"none", "jacobi", "block-jacobi-ic", "fsai", "fsaie-comm"}

// RunBaselines solves one matrix with every baseline.
func RunBaselines(r *Runner, spec testsets.Spec) (BaselineRow, error) {
	row := BaselineRow{Spec: spec, Iterations: map[string]int{}}
	_, nnz := r.size(spec)
	ranks := r.RanksOf(nnz)
	row.Ranks = ranks
	me, err := r.matrix(spec, ranks)
	if err != nil {
		return row, err
	}
	works := r.workspaces(ranks)
	for _, v := range baselineVariants {
		variant := v
		var iters int
		_, err := simmpi.Run(ranks, runTimeout, func(c *simmpi.Comm) error {
			lo, hi := me.layout.Range(c.Rank())
			aRows := distmat.ExtractLocalRows(me.a, lo, hi)
			aOp := distmat.NewOp(c, me.layout, lo, hi, aRows, r.opOptions()...)

			var pre krylov.DistPreconditioner
			switch variant {
			case "none":
				pre = krylov.DistIdentity{}
			case "jacobi":
				local, err := localJacobi(aRows, lo)
				if err != nil {
					return err
				}
				pre = local
			case "block-jacobi-ic":
				bj, err := krylov.NewBlockJacobiIC(aRows, lo, hi)
				if err != nil {
					return err
				}
				pre = bj
			case "fsai", "fsaie-comm":
				method := core.FSAI
				filter := 0.0
				if variant == "fsaie-comm" {
					method = core.FSAIEComm
					filter = 0.01
				}
				bd, err := core.BuildPrecond(c, me.layout, aRows, core.Config{
					Method: method, Filter: filter, Strategy: core.DynamicFilter,
					LineBytes: r.Arch.LineBytes,
				})
				if err != nil {
					return err
				}
				if r.Variant != krylov.CGClassic {
					// The factors follow A into the send-then-compute schedule.
					bd.GOp.EnsureOverlap()
					bd.GTOp.EnsureOverlap()
				}
				pre = krylov.NewDistSplit(bd.GOp, bd.GTOp)
			}
			x := make([]float64, hi-lo)
			st, err := krylov.DistCG(c, aOp, me.b[lo:hi], x, pre,
				r.cgOptions(works, c.Rank(), false), nil)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				iters = st.Iterations
			}
			return nil
		})
		if err != nil {
			return row, fmt.Errorf("experiments: baseline %s/%s: %w", spec.Name, variant, err)
		}
		row.Iterations[variant] = iters
	}
	return row, nil
}

// localJacobi builds a purely-local diagonal scaling from a rank's rows
// (global columns).
func localJacobi(aRows *sparse.CSR, lo int) (krylov.DistPreconditioner, error) {
	inv := make([]float64, aRows.Rows)
	for li := 0; li < aRows.Rows; li++ {
		cols, vals := aRows.Row(li)
		d := 0.0
		for k, c := range cols {
			if c == lo+li {
				d = vals[k]
			}
		}
		if d == 0 {
			return nil, fmt.Errorf("experiments: zero diagonal at global row %d", lo+li)
		}
		inv[li] = 1 / d
	}
	return krylov.RankLocal(&krylov.Jacobi{InvDiag: inv}), nil
}

// WriteBaselines renders the comparison for a set of matrices.
func WriteBaselines(w io.Writer, r *Runner, set []testsets.Spec) error {
	fmt.Fprintf(w, "Distributed preconditioner landscape (arch %s, CG iterations)\n", r.Arch.Name)
	var rows [][]string
	for _, spec := range set {
		row, err := RunBaselines(r, spec)
		if err != nil {
			return err
		}
		cells := []string{row.Spec.Name, fmt.Sprintf("%d", row.Ranks)}
		for _, v := range baselineVariants {
			cells = append(cells, fmt.Sprintf("%d", row.Iterations[v]))
		}
		rows = append(rows, cells)
	}
	writeTable(w, []string{"Matrix", "Ranks", "None", "Jacobi", "BJ-IC(0)", "FSAI", "FSAIE-Comm"}, rows)
	fmt.Fprintln(w)
	return nil
}
