package experiments

import (
	"fmt"
	"io"
	"time"

	"fsaicomm/internal/core"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/testsets"
)

// SetupCostRow compares preconditioner construction cost (serial wall
// clock) and quality (serial PCG iterations) across the whole baseline
// spectrum for one matrix: Jacobi, IC(0), FSAI and the extended FSAIE-Comm
// pipeline. The paper reports only the solve phase; this table documents
// the setup trade-off its related-work section argues qualitatively.
type SetupCostRow struct {
	Spec       testsets.Spec
	SetupTimes map[string]time.Duration
	Iterations map[string]int
}

// setupVariants orders the compared preconditioners.
var setupVariants = []string{"jacobi", "ic0", "fsai", "fsaie-comm"}

// RunSetupCost builds every variant serially on one matrix and measures
// construction wall clock plus PCG iterations.
func RunSetupCost(spec testsets.Spec, lineBytes int) (SetupCostRow, error) {
	row := SetupCostRow{
		Spec:       spec,
		SetupTimes: map[string]time.Duration{},
		Iterations: map[string]int{},
	}
	a := spec.Generate()
	b := matgen.RandomRHS(a.Rows, int64(1000+spec.ID), a.MaxNorm())
	solveWith := func(pre krylov.Preconditioner) (int, error) {
		x := make([]float64, a.Rows)
		st, err := krylov.CG(a, b, x, pre, krylov.Options{MaxIter: 200000}, nil)
		if err != nil {
			return 0, err
		}
		return st.Iterations, nil
	}
	for _, v := range setupVariants {
		t0 := time.Now()
		var pre krylov.Preconditioner
		var err error
		switch v {
		case "jacobi":
			pre, err = krylov.NewJacobi(a)
		case "ic0":
			pre, err = krylov.NewIC0(a)
		case "fsai":
			gm, e := fsai.Build(a, fsai.LowerPattern(a))
			if e != nil {
				err = e
			} else {
				pre = krylov.NewSplit(gm, gm.Transpose())
			}
		case "fsaie-comm":
			gm, _, e := core.BuildSerial(a, core.FSAIEComm, 0.01, lineBytes)
			if e != nil {
				err = e
			} else {
				pre = krylov.NewSplit(gm, gm.Transpose())
			}
		}
		if err != nil {
			return row, fmt.Errorf("experiments: setup %s/%s: %w", spec.Name, v, err)
		}
		row.SetupTimes[v] = time.Since(t0)
		iters, err := solveWith(pre)
		if err != nil {
			return row, fmt.Errorf("experiments: solve %s/%s: %w", spec.Name, v, err)
		}
		row.Iterations[v] = iters
	}
	return row, nil
}

// WriteSetupCost renders the setup-cost comparison for a set of matrices.
func WriteSetupCost(w io.Writer, set []testsets.Spec, lineBytes int) error {
	fmt.Fprintf(w, "Preconditioner setup cost vs quality (serial, %dB lines, Filter 0.01)\n", lineBytes)
	var rows [][]string
	for _, spec := range set {
		row, err := RunSetupCost(spec, lineBytes)
		if err != nil {
			return err
		}
		cells := []string{row.Spec.Name}
		for _, v := range setupVariants {
			cells = append(cells, fmt.Sprintf("%v/%d",
				row.SetupTimes[v].Round(10*time.Microsecond), row.Iterations[v]))
		}
		rows = append(rows, cells)
	}
	writeTable(w, []string{"Matrix", "Jacobi t/it", "IC(0) t/it", "FSAI t/it", "FSAIE-Comm t/it"}, rows)
	fmt.Fprintln(w)
	return nil
}
