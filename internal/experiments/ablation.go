package experiments

import (
	"fmt"
	"io"

	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/testsets"
)

// AblationRow compares one matrix across FSAI, FSAIE-Comm and the
// communication-oblivious "naive" extension (cache-line candidates in
// global index space with no admissibility test). It quantifies what the
// paper's Algorithm 3 rule buys: the naive variant gains similar iteration
// reductions but inflates the halo exchange, which the α–β model converts
// into lost time at scale.
type AblationRow struct {
	Spec       testsets.Spec
	Ranks      int
	Iterations [3]int     // FSAI, FSAIE-Comm, naive
	HaloRecv   [3]int     // total unknowns received per halo update of G
	Neighbours [3]int     // total neighbour pairs in G's halo update
	BytesIter  [3]float64 // metered solve traffic per iteration
	ModelTime  [3]float64 // cost-model solve time (overlap-credit model)
	// ExposedComm is the modeled communication time left exposed after
	// overlap credit, per solve (worst rank): the part of ModelTime the
	// interconnect actually costs under the variant's schedule.
	ExposedComm [3]float64
}

// variantNames orders the ablation columns.
var variantNames = [3]string{"FSAI", "FSAIE-Comm", "naive-ext"}

// RunAblation executes the ablation for one matrix.
func RunAblation(r *Runner, spec testsets.Spec) (AblationRow, error) {
	var row AblationRow
	row.Spec = spec
	_, nnz := r.size(spec)
	ranks := r.RanksOf(nnz)
	row.Ranks = ranks
	me, err := r.matrix(spec, ranks)
	if err != nil {
		return row, err
	}

	works := r.workspaces(ranks)
	for vi := 0; vi < 3; vi++ {
		costs := make([]IterCostInputs, ranks)
		var iters int
		var haloRecv, neigh int
		world, err := simmpi.Run(ranks, runTimeout, func(c *simmpi.Comm) error {
			lo, hi := me.layout.Range(c.Rank())
			nl := hi - lo
			aRows := distmat.ExtractLocalRows(me.a, lo, hi)
			s := core.LowerPatternDist(aRows, lo)
			pat := s
			switch vi {
			case 1: // FSAIE-Comm
				lz := distmat.Localize(lo, hi, core.PatternCSR(s))
				ext, _, err := core.ExtendPattern(me.layout, s, lz, core.ExtendOptions{
					LineBytes: r.Arch.LineBytes, CommAware: true,
				})
				if err != nil {
					return err
				}
				pat = ext
			case 2: // naive
				ext, err := core.ExtendPatternNaive(me.layout, s, core.ExtendOptions{
					LineBytes: r.Arch.LineBytes,
				})
				if err != nil {
					return err
				}
				pat = ext
			}
			g, err := fsai.BuildDistWorkers(c, me.layout, aRows, pat, r.Workers)
			if err != nil {
				return err
			}
			gt := distmat.TransposeDist(c, me.layout, lo, hi, g)
			aOp := distmat.NewOp(c, me.layout, lo, hi, aRows, r.opOptions()...)
			gOp := distmat.NewOp(c, me.layout, lo, hi, g, r.opOptions()...)
			gtOp := distmat.NewOp(c, me.layout, lo, hi, gt, r.opOptions()...)

			recv := c.AllreduceSumInt64(int64(gOp.Plan.RecvCount()))[0]
			nb := c.AllreduceSumInt64(int64(len(gOp.Plan.RecvPeerIDs())))[0]

			costs[c.Rank()] = AssembleIterCost(TraceMisses(r.Arch, aOp, gOp, gtOp), aOp, gOp, gtOp, nl, ranks, r.Variant)

			c.Barrier()
			if c.Rank() == 0 {
				c.Meter().Reset()
			}
			c.Barrier()
			x := make([]float64, nl)
			st, err := krylov.DistCG(c, aOp, me.b[lo:hi], x,
				krylov.NewDistSplit(gOp, gtOp), r.cgOptions(works, c.Rank(), false), nil)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				iters = st.Iterations
				haloRecv = int(recv)
				neigh = int(nb)
			}
			return nil
		})
		if err != nil {
			return row, fmt.Errorf("experiments: ablation %s/%s: %w", spec.Name, variantNames[vi], err)
		}
		row.Iterations[vi] = iters
		row.HaloRecv[vi] = haloRecv
		row.Neighbours[vi] = neigh
		row.BytesIter[vi] = float64(world.Meter().TotalP2PBytes()) / float64(iters)
		row.ModelTime[vi] = ModeledSolveTime(r.Arch, r.Variant, iters, costs)
		rep := ModeledPhases(r.Arch, r.Variant, iters, costs)
		row.ExposedComm[vi] = rep.ExposedSec
		for _, w := range rep.Windows {
			row.ExposedComm[vi] += w.ExposedSec
		}
	}
	return row, nil
}

// WriteAblation renders the ablation table for a set of matrices.
func WriteAblation(w io.Writer, r *Runner, set []testsets.Spec) error {
	fmt.Fprintf(w, "Ablation: communication-aware admissibility rule (arch %s, unfiltered)\n", r.Arch.Name)
	fmt.Fprintln(w, "naive-ext extends over global cache lines with no admissibility test.")
	var rows [][]string
	for _, spec := range set {
		row, err := RunAblation(r, spec)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			row.Spec.Name, fmt.Sprintf("%d", row.Ranks),
			fmt.Sprintf("%d/%d/%d", row.Iterations[0], row.Iterations[1], row.Iterations[2]),
			fmt.Sprintf("%d/%d/%d", row.HaloRecv[0], row.HaloRecv[1], row.HaloRecv[2]),
			fmt.Sprintf("%d/%d/%d", row.Neighbours[0], row.Neighbours[1], row.Neighbours[2]),
			fmt.Sprintf("%.0f/%.0f/%.0f", row.BytesIter[0], row.BytesIter[1], row.BytesIter[2]),
			fmt.Sprintf("%.2e/%.2e/%.2e", row.ModelTime[0], row.ModelTime[1], row.ModelTime[2]),
			fmt.Sprintf("%.2e/%.2e/%.2e", row.ExposedComm[0], row.ExposedComm[1], row.ExposedComm[2]),
		})
	}
	writeTable(w, []string{
		"Matrix", "Ranks", "Iters F/C/N", "Halo recv F/C/N", "Neigh F/C/N",
		"Bytes/iter F/C/N", "Model time F/C/N", "Exposed comm F/C/N",
	}, rows)
	fmt.Fprintln(w)
	return nil
}
