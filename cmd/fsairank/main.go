// Command fsairank is the multi-process rank worker. It is normally not run
// by hand: mprun.Start re-executes whatever binary called it with the worker
// environment set, and MaybeWorker takes over. Running fsairank directly
// gives the self-check mode used by `make mp`:
//
//	fsairank -selfcheck [-ranks 4] [-matrix Dubcova2-sim]
//
// which sets the named catalog matrix up once on goroutine ranks, solves it
// on them with the operators that set-up holds, and twice more, one job
// after the other on one mesh of resident workers, with one OS process per
// rank over the tcpmpi mesh — the first job ships the operators, the second
// finds them kept. It then diffs each tcp run against the sim run bit for bit:
// solution vector, iteration count, and per-rank metered solve traffic.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/testsets"
)

func main() {
	mprun.MaybeWorker()

	selfcheck := flag.Bool("selfcheck", false, "run the sim-vs-multiprocess differential and exit")
	ranks := flag.Int("ranks", 4, "world size for -selfcheck")
	matrix := flag.String("matrix", "Dubcova2-sim", "catalog matrix for -selfcheck")
	flag.Parse()

	if !*selfcheck {
		fmt.Fprintln(os.Stderr, "fsairank: worker environment not set and -selfcheck not given")
		fmt.Fprintln(os.Stderr, "(this binary is normally spawned by mprun.Start; see -h)")
		os.Exit(2)
	}
	if err := runSelfcheck(*ranks, *matrix); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("PASS")
}

func runSelfcheck(ranks int, matrix string) error {
	sp, err := testsets.ByName(matrix)
	if err != nil {
		return err
	}
	a := sp.Generate()
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	layout := distmat.NewUniformLayout(a.Rows, ranks)
	held := make([]mprun.Operators, ranks)
	cfg := core.Config{Method: core.FSAIEComm, Filter: 0.01, LineBytes: 64}
	if _, err := simmpi.Run(ranks, 60*time.Second, func(c *simmpi.Comm) error {
		lo, hi := layout.Range(c.Rank())
		bd, err := core.BuildPrecond(c, layout, distmat.ExtractLocalRows(a, lo, hi), cfg)
		if err != nil {
			return err
		}
		held[c.Rank()] = mprun.Operators{A: mprun.Hold(bd.AOp), G: mprun.Hold(bd.GOp), GT: mprun.Hold(bd.GTOp)}
		return nil
	}); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	job := mprun.JobSpec{
		Layout: layout,
		Solve:  mprun.SolveParams{Tol: 1e-8, MaxIter: 2000, Variant: krylov.CGClassic},
	}
	jobFor := func(rank int) *mprun.JobSpec {
		j := job.ForRank(rank, b)
		j.Adopt = &held[rank]
		return j
	}
	fmt.Printf("matrix %s: n=%d nnz=%d ranks=%d\n", matrix, a.Rows, a.NNZ(), ranks)

	simOuts := make([]*mprun.RankOutcome, ranks)
	t0 := time.Now()
	if _, err := simmpi.Run(ranks, 60*time.Second, func(c *simmpi.Comm) error {
		out, err := mprun.RunJob(context.Background(), c, jobFor(c.Rank()), nil)
		if err != nil {
			return err
		}
		simOuts[c.Rank()] = out
		return nil
	}); err != nil {
		return fmt.Errorf("sim backend: %w", err)
	}
	fmt.Printf("sim backend:  %d iterations in %v\n", simOuts[0].Iterations, time.Since(t0).Round(time.Millisecond))

	mesh, err := mprun.Start(ranks)
	if err != nil {
		return fmt.Errorf("tcp backend: %w", err)
	}
	defer mesh.Close()
	jobs := make([]*mprun.JobSpec, ranks)
	for r := range jobs {
		jobs[r] = jobFor(r)
	}
	// Two jobs on one mesh: the second finds the workers as the first left
	// them, and must still match the sim run in every meter.
	for pass := 1; pass <= 2; pass++ {
		t1 := time.Now()
		tcpOuts, err := mesh.Run(context.Background(), jobs)
		if err != nil {
			return fmt.Errorf("tcp backend, job %d: %w", pass, err)
		}
		fmt.Printf("tcp backend:  %d iterations in %v (job %d on %d resident worker processes)\n",
			tcpOuts[0].Iterations, time.Since(t1).Round(time.Millisecond), pass, ranks)
		if err := diffOutcomes(simOuts, tcpOuts); err != nil {
			return fmt.Errorf("job %d: %w", pass, err)
		}
	}
	if !simOuts[0].Converged {
		return fmt.Errorf("solve did not converge (%d iterations)", simOuts[0].Iterations)
	}
	fmt.Printf("diff: x, iterations, and per-rank comm meters bit-identical across backends\n")
	return nil
}

// diffOutcomes compares what every rank reported on the two backends.
func diffOutcomes(simOuts, tcpOuts []*mprun.RankOutcome) error {
	for r, s := range simOuts {
		p := tcpOuts[r]
		if p == nil {
			return fmt.Errorf("rank %d: no outcome from worker", r)
		}
		if s.Iterations != p.Iterations || s.Converged != p.Converged || s.RelResidual != p.RelResidual {
			return fmt.Errorf("rank %d: stats diverge: sim (%d, %v, %g) vs tcp (%d, %v, %g)",
				r, s.Iterations, s.Converged, s.RelResidual, p.Iterations, p.Converged, p.RelResidual)
		}
		if len(s.XLocal) != len(p.XLocal) {
			return fmt.Errorf("rank %d: solution length diverges: %d vs %d", r, len(s.XLocal), len(p.XLocal))
		}
		for i := range s.XLocal {
			if s.XLocal[i] != p.XLocal[i] {
				return fmt.Errorf("rank %d: x[%d] diverges: %v vs %v", r, s.Lo+i, s.XLocal[i], p.XLocal[i])
			}
		}
		if s.SolveComm != p.SolveComm {
			return fmt.Errorf("rank %d: metered traffic diverges:\nsim %+v\ntcp %+v", r, s.SolveComm, p.SolveComm)
		}
	}
	return nil
}
