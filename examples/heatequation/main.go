// Heatequation: the paper's motivating workload shape — a PDE solver that
// solves a linear system with the same SPD matrix at every time step. We
// integrate the transient heat equation u_t = ∇·(κ∇u) on a 2D plate with
// implicit Euler: (M + Δt·K) uⁿ⁺¹ = M uⁿ. The system matrix is fixed, so
// each preconditioner is built once; the cumulative iteration counts over
// the simulation show where FSAIE-Comm's extra setup pays off.
//
// A second run lets the conductivity drift, as it does once material
// properties depend on temperature: every few steps the operator has new
// values on the same sparsity pattern. It is integrated twice on four
// ranks — setting each new operator up from nothing (Prepare), and keeping
// what the pattern alone decides and redoing only what the values decide
// (Refactor) — and prints what the two spent on set-up. The temperatures
// agree to the bit.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	"fsaicomm"
)

const (
	nx, ny = 48, 48
	steps  = 20
	dt     = 0.5
)

// eulerOperator returns A = I + dt·K, the implicit Euler operator (unit mass
// lumping) of the plate with conductivity kx along x.
func eulerOperator(kx float64) *fsaicomm.Matrix {
	a := buildConductivity(kx)
	a.Scale(dt)
	for i := 0; i < a.Rows; i++ {
		addDiag(a, i, 1)
	}
	return a
}

func main() {
	// K: anisotropic conductivity (strong along x, the memory direction).
	a := eulerOperator(8)
	fmt.Printf("implicit Euler heat equation: %d unknowns, %d steps, dt=%g\n\n", a.Rows, steps, dt)

	for _, method := range []fsaicomm.Method{fsaicomm.FSAI, fsaicomm.FSAIEComm} {
		p, err := fsaicomm.BuildPreconditioner(a, fsaicomm.Options{Method: method, Filter: 0.01})
		if err != nil {
			log.Fatal(err)
		}
		// Initial condition: hot square in the middle of the plate.
		u := make([]float64, a.Rows)
		for y := ny / 3; y < 2*ny/3; y++ {
			for x := nx / 3; x < 2*nx/3; x++ {
				u[y*nx+x] = 100
			}
		}
		totalIters := 0
		var solveTime time.Duration
		for step := 0; step < steps; step++ {
			res, err := p.SolveWith(u, fsaicomm.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if !res.Converged {
				log.Fatalf("%v: step %d did not converge", method, step)
			}
			u = res.X
			totalIters += res.Iterations
			solveTime += res.SolveTime
		}
		// Energy check: total heat only leaves through the boundary.
		var heat float64
		for _, v := range u {
			heat += v
		}
		fmt.Printf("%-11v setup %8v | %3d total iterations over %d steps | solve %8v | final heat %.1f\n",
			method, p.SetupTime().Round(time.Microsecond), totalIters, steps,
			solveTime.Round(time.Microsecond), heat)
	}
	fmt.Println("\nThe system matrix is fixed across steps, so the richer FSAIE-Comm")
	fmt.Println("factor is built once and its iteration savings compound over the")
	fmt.Println("simulation (the time-stepping pattern the paper's intro motivates).")
	fmt.Println("Whether fewer-but-heavier iterations also win wall-clock depends on")
	fmt.Println("the per-iteration cost structure: on distributed hardware, where each")
	fmt.Println("iteration pays synchronization and latency, they do — that is what")
	fmt.Println("the paper's evaluation (and this repo's cost model) measures.")

	driftingConductivity()
}

// driftingConductivity integrates the plate with a conductivity that changes
// every few steps, once with a fresh Prepare per operator and once with
// Refactor on the first system's structure.
func driftingConductivity() {
	const every = 4 // steps between conductivity updates
	opt := fsaicomm.Options{Method: fsaicomm.FSAIEComm, Filter: 0.01, Ranks: 4}
	fmt.Printf("\nconductivity drifting every %d steps (%d operators, one pattern), %d ranks:\n", every, steps/every, opt.Ranks)
	var final [2][]float64
	for run, name := range []string{"Prepare each", "Refactor"} {
		u := make([]float64, nx*ny)
		for y := ny / 3; y < 2*ny/3; y++ {
			for x := nx / 3; x < 2*nx/3; x++ {
				u[y*nx+x] = 100
			}
		}
		var p *fsaicomm.Prepared
		var setup time.Duration
		iters := 0
		for step := 0; step < steps; step++ {
			if step%every == 0 {
				a := eulerOperator(8 / (1 + 0.15*float64(step/every))) // hotter plate, poorer conductor
				var err error
				if p == nil || run == 0 {
					p, err = fsaicomm.Prepare(a, opt)
				} else {
					p, err = p.Refactor(a)
				}
				if err != nil {
					log.Fatal(err)
				}
				setup += p.SetupTime()
			}
			res, err := p.Solve(context.Background(), u, fsaicomm.SolveOptions{})
			if err != nil {
				log.Fatal(err)
			}
			u = res.X
			iters += res.Iterations
		}
		final[run] = u
		fmt.Printf("%-13s set-up %8v over %d operators | %3d total iterations\n",
			name, setup.Round(time.Microsecond), steps/every, iters)
	}
	if !slices.Equal(final[0], final[1]) {
		log.Fatal("the two runs disagree")
	}
	fmt.Println("final temperatures identical to the bit: a refactored system is the one")
	fmt.Println("Prepare builds; it skips the partition, the pattern extension and every")
	fmt.Println("index exchange, which the pattern decided once and for all.")
}

// buildConductivity assembles the anisotropic 5-point conduction operator.
func buildConductivity(kx float64) *fsaicomm.Matrix {
	const ky = 1.0
	c := fsaicomm.NewCOO(nx*ny, nx*ny)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			diag := 0.0
			if x > 0 {
				c.Add(i, id(x-1, y), -kx)
				diag += kx
			}
			if x < nx-1 {
				c.Add(i, id(x+1, y), -kx)
				diag += kx
			}
			if y > 0 {
				c.Add(i, id(x, y-1), -ky)
				diag += ky
			}
			if y < ny-1 {
				c.Add(i, id(x, y+1), -ky)
				diag += ky
			}
			c.Add(i, i, diag+0.05) // mild boundary leakage keeps it SPD
		}
	}
	return c.ToCSR()
}

func addDiag(a *fsaicomm.Matrix, i int, v float64) {
	cols, vals := a.Row(i)
	for k, c := range cols {
		if c == i {
			vals[k] += v
			return
		}
	}
	log.Fatalf("row %d has no diagonal", i)
}
