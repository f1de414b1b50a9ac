package fsaicomm_test

import (
	"fmt"

	"fsaicomm"
)

// A nonsymmetric circuit-like operator and a unit-norm right-hand side,
// solved with the SPAI preconditioner under GMRES.
func Example_nonsymmetric() {
	a := fsaicomm.GenerateNonsymCircuit(400, 4, 1)
	b := fsaicomm.GenerateUnitRHS(a.Rows, 2)
	res, err := fsaicomm.Solve(a, b, fsaicomm.Options{Method: fsaicomm.SPAI, Solver: fsaicomm.SolverGMRES})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("converged:", res.Converged)
	// Output: converged: true
}
