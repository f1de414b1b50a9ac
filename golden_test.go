package fsaicomm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"fsaicomm/internal/matgen"
)

// TestSetupGolden pins the outcome of the whole set-up pipeline — partition,
// permutation, pattern extension, factor, filter, rebuild, transpose — on
// the two benchmark systems to values computed before the set-up was
// rewritten for speed (commit c3637bd): the iteration count, the pattern
// growth and a SHA-256 of the solution's float bits. Any change to a
// partition, a factor entry or a summation order shows up here.
func TestSetupGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two 37³ set-ups")
	}
	cases := []struct {
		name   string
		a      *Matrix
		filter float64
		iters  int
		pct    string // %.12f of PctNNZIncrease
		xHash  string
	}{
		{"poisson37/f0", matgen.Poisson3D(37, 37, 37), 0, 66, "435.137653963376", "826eef6813bdb2cadcd789584f7e690b2de69ba38c34c2284b61e3a4ed686a0c"},
		{"poisson37/f0.05", matgen.Poisson3D(37, 37, 37), 0.05, 71, "41.800962192388", "226a4d1f022f34da48b604f45155c051c4eb06095863ed66b9bf7341ecaf65a2"},
		{"cfd90/f0", matgen.CFDDiffusion(90, 90, 500, 1), 0, 181, "350.679933665008", "54987965f0447aa594282579d1220b1e2bc55b7845060d8e110d43b8cbef0fd4"},
		{"cfd90/f0.05", matgen.CFDDiffusion(90, 90, 500, 1), 0.05, 186, "109.970978441128", "08822c6c4ba0094a3a9c797d68c63839b2ca8ed9d02c8466386a340ba37e6cfe"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Prepare(tc.a, Options{Method: FSAIEComm, Ranks: 2, Filter: tc.filter})
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Solve(context.Background(), GenerateRHS(tc.a, 1), SolveOptions{Tol: 1e-8})
			if err != nil {
				t.Fatal(err)
			}
			pct := fmt.Sprintf("%.12f", res.PctNNZIncrease)
			xHash := hashX(res.X)
			if res.Iterations != tc.iters || pct != tc.pct || xHash != tc.xHash {
				t.Errorf("got  {%d, %q, %q}\nwant {%d, %q, %q}", res.Iterations, pct, xHash, tc.iters, tc.pct, tc.xHash)
			}
		})
	}
}

// hashX is the SHA-256 of a solution's float bits.
func hashX(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSerialGolden pins the one-process solves — Solve with Ranks 1 and
// BuildPreconditioner → SolveWith — to the iterations, refinements and
// solution bits the dedicated serial loops produced before they became the
// distributed loops on one rank (values computed at commit e347adc).
func TestSerialGolden(t *testing.T) {
	spd := matgen.Poisson3D(16, 16, 16)
	nonsym := matgen.ConvectionDiffusion2D(40, 40, 20)
	cases := []struct {
		name        string
		a           *Matrix
		opt         Options
		iters, refs int
		xHash       string
	}{
		{"cg/fsaie-comm", spd, Options{Method: FSAIEComm, Ranks: 1}, 31, 0, "d58cb88291e7056e5718917355a7444dae5bc898a0f75c2a2b53a808524d3689"},
		{"cg/fsaie-comm/fp32", spd, Options{Method: FSAIEComm, Ranks: 1, Precision: FP32}, 32, 1, "d4f42138262ce6ff8be021510fb6f5d805d5f970f2626170e211d9408afda583"},
		{"gmres/spai", nonsym, Options{Method: SPAI, Solver: SolverGMRES, SPAISteps: 2, Ranks: 1}, 106, 0, "fad8d17d6f20d05809f71ae177817bf9d5a6327dbb4076ed317edce65a01e515"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := GenerateRHS(tc.a, 3)
			res, err := Solve(tc.a, b, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashX(res.X); res.Iterations != tc.iters || res.Refinements != tc.refs || got != tc.xHash {
				t.Errorf("Solve: got  {%d, %d, %q}\nwant {%d, %d, %q}", res.Iterations, res.Refinements, got, tc.iters, tc.refs, tc.xHash)
			}
			m, err := BuildPreconditioner(tc.a, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			with, err := m.SolveWith(b, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashX(with.X); with.Iterations != tc.iters || with.Refinements != tc.refs || got != tc.xHash {
				t.Errorf("SolveWith: got  {%d, %d, %q}\nwant {%d, %d, %q}", with.Iterations, with.Refinements, got, tc.iters, tc.refs, tc.xHash)
			}
		})
	}
}
