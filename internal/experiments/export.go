package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/testsets"
)

// WriteResultsCSV runs the complete (matrix × method × filter × strategy)
// grid and writes one machine-readable CSV row per configuration — the raw
// data behind every table, for external plotting.
func WriteResultsCSV(w io.Writer, r *Runner, set []testsets.Spec, filters []float64) error {
	cw := csv.NewWriter(w)
	header := []string{
		"matrix", "class", "rows", "nnz", "ranks", "arch", "method",
		"filter", "strategy", "iterations", "converged", "solve_time_model_s",
		"pct_nnz", "imbalance_index", "misses_per_nnz", "gflops_precond",
		"comm_bytes_per_iter",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	emit := func(res Result) error {
		return cw.Write([]string{
			res.Spec.Name, res.Spec.Class,
			strconv.Itoa(res.Rows), strconv.Itoa(res.NNZ), strconv.Itoa(res.Ranks),
			r.Arch.Name, res.Method.String(),
			strconv.FormatFloat(res.Filter, 'g', -1, 64), res.Strategy.String(),
			strconv.Itoa(res.Iterations), strconv.FormatBool(res.Converged),
			strconv.FormatFloat(res.SolveTime, 'e', 6, 64),
			strconv.FormatFloat(res.PctNNZ, 'f', 4, 64),
			strconv.FormatFloat(res.ImbalanceIndex, 'f', 4, 64),
			strconv.FormatFloat(res.MissesPerNNZ, 'f', 6, 64),
			strconv.FormatFloat(res.GFlopsPrecond, 'f', 4, 64),
			strconv.FormatFloat(res.CommBytesPerIter, 'f', 1, 64),
		})
	}
	for _, spec := range set {
		base, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
		if err != nil {
			return err
		}
		if err := emit(base); err != nil {
			return err
		}
		for _, method := range []core.Method{core.FSAIE, core.FSAIEComm} {
			for _, strategy := range []core.FilterStrategy{core.StaticFilter, core.DynamicFilter} {
				for _, f := range filters {
					res, err := r.Run(spec, method, f, strategy)
					if err != nil {
						return err
					}
					if err := emit(res); err != nil {
						return err
					}
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteConvergence prints the per-iteration relative residual histories of
// FSAI and FSAIE-Comm side by side for one matrix — the convergence-curve
// view of the iteration-count tables.
func WriteConvergence(w io.Writer, r *Runner, spec testsets.Spec, filter float64) error {
	_, nnz := r.size(spec)
	ranks := r.RanksOf(nnz)
	me, err := r.matrix(spec, ranks)
	if err != nil {
		return err
	}
	histories := map[core.Method][]float64{}
	works := r.workspaces(ranks)
	for _, method := range []core.Method{core.FSAI, core.FSAIEComm} {
		ee, err := r.extended(spec, me, method, ranks)
		if err != nil {
			return err
		}
		var hist []float64
		_, err = simmpi.Run(ranks, runTimeout, func(c *simmpi.Comm) error {
			lo, hi := me.layout.Range(c.Rank())
			aRows := distmat.ExtractLocalRows(me.a, lo, hi)
			g := ee.gExt[c.Rank()]
			if method != core.FSAI {
				base := core.LowerPatternDist(aRows, lo).Pattern
				var err error
				g, _, err = core.FilterRebuild(c, me.layout, aRows, g, base, filter, core.StaticFilter, r.Workers)
				if err != nil {
					return err
				}
			}
			gt := distmat.TransposeDist(c, me.layout, lo, hi, g)
			aOp := distmat.NewOp(c, me.layout, lo, hi, aRows, r.opOptions()...)
			gOp := distmat.NewOp(c, me.layout, lo, hi, g, r.opOptions()...)
			gtOp := distmat.NewOp(c, me.layout, lo, hi, gt, r.opOptions()...)
			x := make([]float64, hi-lo)
			st, err := krylov.DistCG(c, aOp, me.b[lo:hi], x,
				krylov.NewDistSplit(gOp, gtOp),
				r.cgOptions(works, c.Rank(), true), nil)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				hist = st.Residuals
			}
			return nil
		})
		if err != nil {
			return err
		}
		histories[method] = hist
	}
	fmt.Fprintf(w, "Convergence histories on %s (Filter %g, arch %s)\n", spec.Name, filter, r.Arch.Name)
	fmt.Fprintln(w, "iter  FSAI-relres      FSAIE-Comm-relres")
	hf, hc := histories[core.FSAI], histories[core.FSAIEComm]
	max := len(hf)
	if len(hc) > max {
		max = len(hc)
	}
	step := 1
	if max > 40 {
		step = max / 40
	}
	for i := 0; i < max; i += step {
		line := fmt.Sprintf("%4d  ", i+1)
		if i < len(hf) {
			line += fmt.Sprintf("%-15.6e  ", hf[i])
		} else {
			line += fmt.Sprintf("%-15s  ", "converged")
		}
		if i < len(hc) {
			line += fmt.Sprintf("%.6e", hc[i])
		} else {
			line += "converged"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "FSAI: %d iterations, FSAIE-Comm: %d iterations\n\n", len(hf), len(hc))
	return nil
}
