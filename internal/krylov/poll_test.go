package krylov

import (
	"fmt"
	"runtime"
	"testing"

	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
)

// Ranks that outnumber the Ps they run on must not starve each other while
// they poll: 8 ranks on one P and on two finish every CG variant — blocking
// receives, collectives, and the nonblocking chains of the overlap and
// pipelined loops — with the bits and the iteration count of a run in which
// every wait parks.
func TestPollingRanksShareFewPs(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	b := matgen.RandomRHS(a.Rows, 5, a.MaxNorm())
	for _, v := range []CGVariant{CGClassic, CGClassicOverlap, CGFused, CGPipelined} {
		opt := Options{Tol: 1e-9, Variant: v}
		restore := simmpi.PollFor(0)
		want, wantSt := distSolve(t, a, b, 8, nil, opt)
		restore()
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/GOMAXPROCS=%d", v, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got, st := distSolve(t, a, b, 8, nil, opt)
				if st.Iterations != wantSt.Iterations || !st.Converged {
					t.Fatalf("%d iterations (converged %v), parked run %d", st.Iterations, st.Converged, wantSt.Iterations)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("x[%d] = %v, parked run %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
