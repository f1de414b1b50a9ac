package fsaicomm

import (
	"context"
	"testing"

	"fsaicomm/internal/matgen"
)

// TestBlockingPreconditionerBitPins pins the fused and pipelined solves of
// the two benchmark systems, on goroutine ranks and on rank processes, to
// the iterations and the SHA-256 of x's bits they had while the fused loop's
// products and pipelined CG's preconditioner ran the interior/boundary
// overlap schedule (commit 2e37be6). Both now block; the schedule moves no
// bit.
func TestBlockingPreconditionerBitPins(t *testing.T) {
	if testing.Short() {
		t.Skip("two benchmark-sized set-ups and eight solves")
	}
	systems := []struct {
		name  string
		a     *Matrix
		iters int
		xHash map[CGVariant]string
	}{
		{"poisson37", matgen.Poisson3D(37, 37, 37), 66, map[CGVariant]string{
			CGFused:     "609be4a062054f60dcd4e987850b6beb336a3ef1f4ce49a9cc9dc56439baecb8",
			CGPipelined: "0869a6fd3141c6309e6d696e8797951b80d69cabcd516bad4956c14a7a4320c4",
		}},
		{"cfd90", matgen.CFDDiffusion(90, 90, 500, 1), 181, map[CGVariant]string{
			CGFused:     "347ab9f7c5298d6a96aaac795c25701fb96f100e8560af54299c2d34be573706",
			CGPipelined: "ef245cb727fcb4ed620fea97ca4478990c5b95fbff3c4cc5e0803c12e3fac7b8",
		}},
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			p, err := Prepare(sys.a, Options{Method: FSAIEComm, Ranks: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			b := GenerateRHS(sys.a, 1)
			for _, v := range []CGVariant{CGFused, CGPipelined} {
				for _, transport := range []string{"sim", "tcp"} {
					res, err := p.Solve(context.Background(), b, SolveOptions{Tol: 1e-8, CGVariant: v, Transport: transport})
					if err != nil {
						t.Fatalf("%v/%s: %v", v, transport, err)
					}
					if got := hashX(res.X); res.Iterations != sys.iters || got != sys.xHash[v] {
						t.Errorf("%v/%s: got {%d, %s}, want {%d, %s}", v, transport, res.Iterations, got, sys.iters, sys.xHash[v])
					}
				}
			}
		})
	}
}
