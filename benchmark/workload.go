package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"fsaicomm"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/sparse"
)

const (
	ranks    = 2    // nproc on the bench host; more ranks than cores measures the scheduler
	tol      = 1e-8 // the paper's convergence criterion
	rhsCycle = 16   // distinct right-hand sides a workload rotates over
	// cfdSeed fixes the coefficient field of the warm-tcp matrix. The field
	// decides the iteration count (141..194 over seeds 1..12), so deriving it
	// from -seed would make every timing of warm-tcp a function of the seed.
	cfdSeed = 1
)

// workload is one closed-loop traffic mix against one server configuration.
type workload struct {
	name       string
	serverArgs []string
	clients    int    // concurrent requests per unit of work, released together
	cg         string // /solve "cg"
	transport  string // /solve "transport"
	cold       bool   // every unit uploads a never-seen matrix first
	matrix     func(quick bool) *sparse.CSR
}

func poisson(quick bool) *sparse.CSR {
	if quick {
		return matgen.Poisson3D(8, 8, 8)
	}
	return matgen.Poisson3D(37, 37, 37)
}

func cfd(quick bool) *sparse.CSR {
	if quick {
		return matgen.CFDDiffusion(20, 20, 500, cfdSeed)
	}
	return matgen.CFDDiffusion(90, 90, 500, cfdSeed)
}

var workloads = []*workload{
	{name: "warm-sim", clients: 1, cg: "classic", transport: "sim", matrix: poisson},
	{name: "warm-tcp", clients: 1, cg: "classic", transport: "tcp", matrix: cfd},
	{name: "cold-setup", clients: 1, cg: "classic", transport: "sim", cold: true, matrix: poisson},
	// The window is far longer than a round trip so a batch only ever closes
	// because it is full: two clients, batch-max 2.
	{name: "batch-coalesce", serverArgs: []string{"-batch-max", "2", "-batch-window", "2s"},
		clients: 2, cg: "fused", transport: "sim", matrix: poisson},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs generates everything a run sends from the seed; the server only ever
// sees what comes out of here.
type inputs struct {
	seed int64
	base *sparse.CSR
	diag []int // position of each row's diagonal entry in base.Val
	rhs  map[rhsKey][]float64
}

type rhsKey struct {
	matrix  int // perturbation index; 0 is the unperturbed base on warm workloads
	rhsSeed int64
}

func newInputs(w *workload, seed int64, quick bool) *inputs {
	in := &inputs{seed: seed, base: w.matrix(quick), rhs: make(map[rhsKey][]float64)}
	in.diag = make([]int, in.base.Rows)
	for i := range in.diag {
		for p := in.base.RowPtr[i]; p < in.base.RowPtr[i+1]; p++ {
			if in.base.ColIdx[p] == i {
				in.diag[i] = p
			}
		}
	}
	return in
}

// rhsSeed is the i-th right-hand-side seed of the rotation. Never 0, which
// the server reads as "default".
func (in *inputs) rhsSeed(i int) int64 { return in.seed*1000 + 1 + int64(i%rhsCycle) }

// perturbed returns base + diag(d), d_i uniform in [0, 0.05]·a_ii, a matrix
// the server has not seen: still SPD, same structure, new fingerprint.
func (in *inputs) perturbed(index int) *sparse.CSR {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(index)))
	a := &sparse.CSR{Rows: in.base.Rows, Cols: in.base.Cols, RowPtr: in.base.RowPtr, ColIdx: in.base.ColIdx,
		Val: append([]float64(nil), in.base.Val...)}
	for _, p := range in.diag {
		a.Val[p] *= 1 + 0.05*rng.Float64()
	}
	return a
}

func matrixMarket(a *sparse.CSR) []byte {
	var buf bytes.Buffer
	buf.Grow(32 * a.NNZ())
	if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// rightHandSide regenerates what the server derives from rhs_seed. Warm
// workloads rotate over a few vectors, so those are kept.
func (in *inputs) rightHandSide(a *sparse.CSR, k rhsKey, keep bool) []float64 {
	if b, ok := in.rhs[k]; ok {
		return b
	}
	b := fsaicomm.GenerateRHS(a, k.rhsSeed)
	if keep {
		in.rhs[k] = b
	}
	return b
}

// solveRequest and solveResponse are the parts of the /solve API the harness
// uses.
type solveRequest struct {
	Matrix    string  `json:"matrix"`
	RHSSeed   int64   `json:"rhs_seed"`
	Method    string  `json:"method"`
	Ranks     int     `json:"ranks"`
	Tol       float64 `json:"tol"`
	CG        string  `json:"cg"`
	Transport string  `json:"transport"`
}

type solveResponse struct {
	CacheHit    bool      `json:"cache_hit"`
	Iterations  int       `json:"iterations"`
	Converged   bool      `json:"converged"`
	SetupMs     float64   `json:"setup_ms"`
	SolveMs     float64   `json:"solve_ms"`
	ModeledSec  float64   `json:"modeled_solve_sec"`
	CommBytes   int64     `json:"comm_bytes"`
	Collectives int64     `json:"collective_calls"`
	PctNNZ      float64   `json:"pct_nnz_increase"`
	X           []float64 `json:"x"`
	Batched     int       `json:"batched"`
}

type matrixResponse struct {
	Matrix string `json:"matrix"`
	Rows   int    `json:"rows"`
	NNZ    int    `json:"nnz"`
	Cached bool   `json:"cached"`
}

// expect is what a correct response must say beyond the numbers.
type expect struct {
	cacheHit bool
	batched  int // 0 on the scalar path
}

// checker verifies every answer against the generated inputs and remembers a
// digest of each x so a repeated (matrix, rhs_seed) must reproduce it bit for
// bit.
type checker struct {
	seen map[rhsKey][sha256.Size]byte
}

func newChecker() *checker { return &checker{seen: make(map[rhsKey][sha256.Size]byte)} }

func (c *checker) solve(a *sparse.CSR, b []float64, k rhsKey, r *solveResponse, want expect) error {
	switch {
	case !r.Converged:
		return fmt.Errorf("not converged after %d iterations", r.Iterations)
	case r.CacheHit != want.cacheHit:
		return fmt.Errorf("cache_hit %v, want %v", r.CacheHit, want.cacheHit)
	case r.Batched != want.batched:
		return fmt.Errorf("batched %d, want %d", r.Batched, want.batched)
	case len(r.X) != a.Rows:
		return fmt.Errorf("x has %d entries, want %d", len(r.X), a.Rows)
	}
	ax := make([]float64, a.Rows)
	a.MulVec(r.X, ax)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	// NaN fails the comparison too.
	if rel := math.Sqrt(rr / bb); !(rel <= 10*tol) {
		return fmt.Errorf("‖b−Ax‖/‖b‖ = %.3e > %.0e", rel, 10*tol)
	}
	h := sha256.New()
	var w [8]byte
	for _, v := range r.X {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		h.Write(w[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	if prev, ok := c.seen[k]; ok && prev != sum {
		return fmt.Errorf("x for rhs_seed %d differs from its earlier solve", k.rhsSeed)
	}
	c.seen[k] = sum
	return nil
}
