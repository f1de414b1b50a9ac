// Command mmsolve solves a linear system read from a Matrix Market file
// with the FSAI family of preconditioners (CG, symmetric positive definite
// systems) or the adaptive SPAI preconditioner (restarted GMRES, general
// systems) — the downstream-user entry point of the library.
//
// Usage:
//
//	mmsolve -matrix A.mtx [-rhs b.txt] [-method fsai|fsaie|fsaie-comm|spai]
//	        [-solver cg|gmres] [-restart 30] [-spai-steps 0] [-spai-add 0] [-spai-eps 0]
//	        [-filter 0.01] [-dynamic] [-line 64] [-ranks 4] [-workers 0]
//	        [-cg classic|fused|pipelined] [-tol 1e-8] [-out x.txt]
//	        [-trace trace.json] [-precision fp64|fp32]
//
// Without -rhs a deterministic random right-hand side normalized to the
// matrix max norm is used (the paper's setup). The matrix is partitioned
// over simulated message-passing ranks and solved with the distributed
// Krylov loop; -ranks 1 is the one-process solve, a world of one rank.
// "-solver gmres" implies "-method spai" when -method is left at its
// default (the FSAI family has no GMRES pairing).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fsaicomm"
)

func main() {
	var (
		matrixPath = flag.String("matrix", "", "Matrix Market file with the system matrix (required; SPD for -solver cg, any square matrix for -solver gmres)")
		rhsPath    = flag.String("rhs", "", "optional right-hand side: one value per line")
		method     = flag.String("method", "fsaie-comm", "preconditioner: fsai, fsaie, fsaie-comm or spai (spai pairs with -solver gmres)")
		solver     = flag.String("solver", "cg", "Krylov solver: cg (FSAI family, SPD systems) or gmres (SPAI, general systems)")
		restart    = flag.Int("restart", 0, "GMRES restart length (0 = 30)")
		spaiSteps  = flag.Int("spai-steps", 0, "SPAI adaptive enrichment rounds (0 = static pattern)")
		spaiAdd    = flag.Int("spai-add", 0, "SPAI entries added per column per round (0 = 5)")
		spaiEps    = flag.Float64("spai-eps", 0, "SPAI per-column residual target stopping enrichment (0 = 0.4)")
		filter     = flag.Float64("filter", 0.01, "Filter value for extension filtering")
		dynamic    = flag.Bool("dynamic", false, "use the dynamic (load-balancing) filter strategy")
		line       = flag.Int("line", 64, "cache line size in bytes steering the extension")
		ranks      = flag.Int("ranks", 0, "simulated process count (0 = auto, 1 = serial)")
		workers    = flag.Int("workers", 0, "setup worker threads per rank (0 = GOMAXPROCS)")
		cg         = flag.String("cg", "classic", "distributed CG loop: classic, fused or pipelined (the last two use one Allreduce per iteration)")
		tol        = flag.Float64("tol", 1e-8, "relative residual tolerance")
		maxIter    = flag.Int("maxiter", 0, "iteration cap (0 = 10n)")
		outPath    = flag.String("out", "", "write the solution vector to this file (one value per line)")
		tracePath  = flag.String("trace", "", "write per-iteration solver telemetry (residual, alpha/beta, comm deltas) to this JSON file")
		precision  = flag.String("precision", "", "solve precision: fp64 (default) or fp32 (float32 factors + FP64 iterative refinement; halves halo traffic)")
	)
	flag.Parse()
	methodSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "method" {
			methodSet = true
		}
	})
	if *solver == "gmres" && !methodSet {
		// GMRES implies SPAI; only an explicit -method should override (and
		// then Validate rejects the FSAI family with a descriptive error).
		*method = "spai"
	}
	sp := spaiFlags{solver: *solver, restart: *restart, steps: *spaiSteps, add: *spaiAdd, eps: *spaiEps}
	if err := run(*matrixPath, *rhsPath, *method, *filter, *dynamic, *line, *ranks, *workers, *cg, *tol, *maxIter, *outPath, *tracePath, *precision, sp); err != nil {
		fmt.Fprintln(os.Stderr, "mmsolve:", err)
		os.Exit(1)
	}
}

// spaiFlags groups the nonsymmetric-axis knobs so run's signature stays
// readable.
type spaiFlags struct {
	solver  string
	restart int
	steps   int
	add     int
	eps     float64
}

func run(matrixPath, rhsPath, method string, filter float64, dynamic bool, line, ranks, workers int, cg string, tol float64, maxIter int, outPath, tracePath, precision string, sp spaiFlags) error {
	if matrixPath == "" {
		return fmt.Errorf("-matrix is required")
	}
	f, err := os.Open(matrixPath)
	if err != nil {
		return err
	}
	defer f.Close()
	a, err := fsaicomm.ReadMatrixMarket(f)
	if err != nil {
		return err
	}
	fmt.Printf("matrix: %d x %d, %d stored entries\n", a.Rows, a.Cols, a.NNZ())

	var b []float64
	if rhsPath != "" {
		if b, err = readVector(rhsPath); err != nil {
			return err
		}
		if len(b) != a.Rows {
			return fmt.Errorf("rhs has %d entries, matrix has %d rows", len(b), a.Rows)
		}
	} else {
		b = fsaicomm.GenerateRHS(a, 1)
		fmt.Println("rhs: random, normalized to matrix max norm")
	}

	opt := fsaicomm.Options{
		Filter:    filter,
		LineBytes: line,
		Tol:       tol,
		MaxIter:   maxIter,
		Ranks:     ranks,
		Workers:   workers,
		Trace:     tracePath != "",
	}
	m, err := fsaicomm.ParseMethod(method)
	if err != nil {
		return err
	}
	opt.Method = m
	sv, err := fsaicomm.ParseSolver(sp.solver)
	if err != nil {
		return err
	}
	opt.Solver = sv
	opt.Restart = sp.restart
	opt.SPAISteps = sp.steps
	opt.SPAIAdd = sp.add
	opt.SPAIEpsilon = sp.eps
	if dynamic {
		opt.Strategy = fsaicomm.DynamicFilter
	}
	variant, err := fsaicomm.ParseCGVariant(cg)
	if err != nil {
		return err
	}
	opt.CGVariant = variant
	prec, err := fsaicomm.ParsePrecision(precision)
	if err != nil {
		return err
	}
	opt.Precision = prec

	res, err := fsaicomm.SolveDistributed(a, b, opt)
	if err != nil {
		return err
	}
	if sv == fsaicomm.SolverGMRES {
		rs := sp.restart
		if rs == 0 {
			rs = 30
		}
		fmt.Printf("method: %v (level %d, %d enrichment steps, add %d, eps %g) with GMRES(%d)\n",
			opt.Method, max(opt.PatternLevel, 1), sp.steps, sp.add, sp.eps, rs)
	} else {
		fmt.Printf("method: %v (filter %g, %v strategy, %dB lines, %v CG)\n", opt.Method, filter, opt.Strategy, line, opt.CGVariant)
	}
	fmt.Printf("ranks: %d  pattern growth: %+.2f%%  imbalance index: %.3f\n",
		res.Ranks, res.PctNNZIncrease, res.ImbalanceIndex)
	fmt.Printf("converged: %v in %d iterations (rel residual %.3e)\n",
		res.Converged, res.Iterations, res.RelResidual)
	if prec == fsaicomm.FP32 {
		fmt.Printf("precision: fp32 factors with %d FP64 refinement steps\n", res.Refinements)
	}
	fmt.Printf("setup %v, solve %v", res.SetupTime.Round(0), res.SolveTime.Round(0))
	if res.CommBytes > 0 {
		fmt.Printf(", %d bytes exchanged (%.1f per iteration)", res.CommBytes, res.CommBytesPerIteration)
	}
	fmt.Println()
	for _, win := range res.Phases.Windows {
		fmt.Printf("modeled %s window: %.3e s\n", win.Name, win.RawSec)
	}

	if tracePath != "" {
		if err := writeTrace(tracePath, matrixPath, cg, res); err != nil {
			return err
		}
		fmt.Printf("per-iteration trace written to %s\n", tracePath)
	}
	if outPath != "" {
		if err := writeVector(outPath, res.X); err != nil {
			return err
		}
		fmt.Printf("solution written to %s\n", outPath)
	}
	return nil
}

// traceArtifact is the JSON shape of the -trace output: run identification
// plus the per-iteration telemetry and the per-window modeled-time split.
type traceArtifact struct {
	Matrix     string                 `json:"matrix"`
	CGVariant  string                 `json:"cg_variant"`
	Ranks      int                    `json:"ranks"`
	Iterations int                    `json:"iterations"`
	Converged  bool                   `json:"converged"`
	Phases     fsaicomm.OverlapReport `json:"phases"`
	Trace      *fsaicomm.IterTrace    `json:"trace"`
}

func writeTrace(path, matrixPath, cg string, res *fsaicomm.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(traceArtifact{
		Matrix:     matrixPath,
		CGVariant:  cg,
		Ranks:      res.Ranks,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Phases:     res.Phases,
		Trace:      res.Trace,
	})
}

func readVector(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "%") || strings.HasPrefix(t, "#") {
			continue
		}
		v, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func writeVector(path string, x []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, v := range x {
		if _, err := fmt.Fprintf(w, "%.17g\n", v); err != nil {
			return err
		}
	}
	return w.Flush()
}
