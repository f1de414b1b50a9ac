package mprun_test

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"fsaicomm"
	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// TestMain makes this test binary self-host its rank workers: when Start
// re-executes it with the worker environment set, MaybeWorker takes over
// before any test runs.
func TestMain(m *testing.M) {
	mprun.MaybeWorker()
	os.Exit(m.Run())
}

// buildJob sets matrix a up once on goroutine ranks and returns the jobs
// that adopt its operators and solve a fixed right-hand side, one per rank.
func buildJob(t *testing.T, a *sparse.CSR, ranks int, sp mprun.SolveParams) (jobFor func(rank int) *mprun.JobSpec) {
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	layout, held := holdOperators(t, a, ranks)
	job := mprun.JobSpec{Layout: layout, Solve: sp}
	return func(rank int) *mprun.JobSpec {
		j := job.ForRank(rank, b)
		j.Adopt = &held[rank]
		return j
	}
}

// runSim executes the same jobs with in-process goroutine ranks — the
// oracle the multi-process path must match bit for bit.
func runSim(ranks int, jobFor func(rank int) *mprun.JobSpec) ([]*mprun.RankOutcome, error) {
	outs := make([]*mprun.RankOutcome, ranks)
	_, err := simmpi.Run(ranks, 30*time.Second, func(c *simmpi.Comm) error {
		out, err := mprun.RunJob(context.Background(), c, jobFor(c.Rank()), nil)
		outs[c.Rank()] = out
		return err
	})
	return outs, err
}

// runMesh executes the jobs on a mesh started for them and closed after — what
// a solve with nowhere to keep workers does.
func runMesh(ctx context.Context, ranks int, jobFor func(rank int) *mprun.JobSpec) ([]*mprun.RankOutcome, error) {
	mesh, err := mprun.Start(ranks)
	if err != nil {
		return nil, err
	}
	defer mesh.Close()
	return mesh.Run(ctx, jobsOf(ranks, jobFor))
}

func jobsOf(ranks int, jobFor func(rank int) *mprun.JobSpec) []*mprun.JobSpec {
	jobs := make([]*mprun.JobSpec, ranks)
	for r := range jobs {
		jobs[r] = jobFor(r)
	}
	return jobs
}

// TestMeshSolveMatchesSim is the round-trip check for the multi-process
// machinery itself: spawn 4 worker processes, run the same rank job the sim
// backend runs, and require bit-identical solutions, iteration counts, and
// meter snapshots on every rank.
func TestMeshSolveMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const ranks = 4
	jobFor := buildJob(t, matgen.Poisson2D(16, 16), ranks,
		mprun.SolveParams{Tol: 1e-8, MaxIter: 500, Variant: krylov.CGClassic})
	want, err := runSim(ranks, jobFor)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}

	got, err := runMesh(context.Background(), ranks, jobFor)
	if err != nil {
		t.Fatalf("mesh run: %v", err)
	}
	for r := 0; r < ranks; r++ {
		w, g := want[r], got[r]
		if g == nil {
			t.Fatalf("rank %d: no outcome", r)
		}
		if g.Rank != r || g.Lo != w.Lo || g.Hi != w.Hi {
			t.Fatalf("rank %d: layout mismatch: got [%d,%d) want [%d,%d)", r, g.Lo, g.Hi, w.Lo, w.Hi)
		}
		if !reflect.DeepEqual(g.XLocal, w.XLocal) {
			t.Errorf("rank %d: XLocal differs between backends", r)
		}
		if g.Iterations != w.Iterations || g.Converged != w.Converged || g.RelResidual != w.RelResidual {
			t.Errorf("rank %d: stats differ: got (%d, %v, %g) want (%d, %v, %g)",
				r, g.Iterations, g.Converged, g.RelResidual, w.Iterations, w.Converged, w.RelResidual)
		}
		if g.SolveComm != w.SolveComm {
			t.Errorf("rank %d: solve comm differs:\n got %+v\nwant %+v", r, g.SolveComm, w.SolveComm)
		}
	}
	if !want[0].Converged {
		t.Fatal("oracle did not converge — fixture too hard")
	}
}

// TestMeshCancelReturnsPartialOutcomes cancels mid-solve and expects every
// worker to wind down cleanly, reporting a Canceled outcome rather than
// hanging or dying — and the mesh to refuse the next job all the same.
func TestMeshCancelReturnsPartialOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const ranks = 2
	// A big enough system with an unreachably tiny (but positive: zero means
	// "default") tolerance iterates far past the cancel point; the 16×16
	// fixture would hit an exact-zero residual within milliseconds.
	jobFor := buildJob(t, matgen.Poisson2D(64, 64), ranks,
		mprun.SolveParams{Tol: 1e-300, MaxIter: 1 << 30, Variant: krylov.CGClassic})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	mesh, err := mprun.Start(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	start := time.Now()
	outs, err := mesh.Run(ctx, jobsOf(ranks, jobFor))
	if err != nil {
		t.Fatalf("mesh run after cancel: %v", err)
	}
	if mesh.Reusable() {
		t.Error("a mesh that was sent a cancel is offered for reuse")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancel took %v to wind down", elapsed)
	}
	for r, out := range outs {
		if out == nil {
			t.Fatalf("rank %d: no outcome after cancel", r)
		}
		if !out.Canceled {
			t.Errorf("rank %d: Canceled = false after mid-solve cancel", r)
		}
		if out.Converged {
			t.Errorf("rank %d: Converged = true with Tol=0", r)
		}
		if len(out.XLocal) != out.Hi-out.Lo {
			t.Errorf("rank %d: partial XLocal len %d, want %d", r, len(out.XLocal), out.Hi-out.Lo)
		}
	}
}

// TestMalformedSpecIsAnError: a spec without the operators its solve needs,
// a negative width, or a right-hand side of the wrong length comes back as a
// descriptive error from every rank — on the sim path directly, on the tcp
// path through the worker's report — never as a crash. A worker reads a spec
// without operators as "run on what you hold"; one that holds nothing yet
// refuses it.
func TestMalformedSpecIsAnError(t *testing.T) {
	const ranks = 2
	a := matgen.Poisson2D(8, 8)
	good := buildJob(t, a, ranks, mprun.SolveParams{Tol: 1e-8, MaxIter: 100})
	cases := []struct {
		name   string
		mangle func(j *mprun.JobSpec)
		want   string
	}{
		{"no operators", func(j *mprun.JobSpec) { j.Adopt = nil }, "do not hold"},
		{"adopts nothing", func(j *mprun.JobSpec) { j.Adopt = &mprun.Operators{} }, "do not hold"},
		{"factors for a GMRES solve", func(j *mprun.JobSpec) { j.Solve.Solver = krylov.SolverGMRES }, "do not hold"},
		{"negative K", func(j *mprun.JobSpec) { j.K = -1 }, "negative"},
		{"short rhs", func(j *mprun.JobSpec) { j.B = j.B[1:] }, "right-hand side"},
		{"scalar rhs for K=2", func(j *mprun.JobSpec) { j.K = 2 }, "right-hand side"},
		{"layout of another world", func(j *mprun.JobSpec) { j.Layout = distmat.NewUniformLayout(a.Rows, 3) }, "world has 2"},
		{"no layout", func(j *mprun.JobSpec) { j.Layout = nil }, "empty job spec"},
	}
	for _, tc := range cases {
		jobFor := func(rank int) *mprun.JobSpec {
			j := good(rank)
			tc.mangle(j)
			return j
		}
		if _, err := runSim(ranks, jobFor); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s (sim): error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if testing.Short() || tc.name != "short rhs" && tc.name != "no operators" {
			continue // a trip through real worker processes for each side of the check is enough
		}
		if _, err := runMesh(context.Background(), ranks, jobFor); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s (tcp): error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestCacheTraceRunsOncePerSystemAndProfile counts the cache-simulator runs
// behind a prepared system's solves: the first scalar solve under a profile
// traces every rank, every later one — whatever its variant or transport —
// is priced from the result; profiles are remembered side by side; a
// batched solve assembles no cost inputs at all; and a full set-up, which
// has no earlier solve to learn from, traces every time. The traces run in
// the process that holds the operators, a tcp solve's included: its worker
// processes only solve.
func TestCacheTraceRunsOncePerSystemAndProfile(t *testing.T) {
	traces := mprun.CountTraces(t)
	const ranks = 4
	a := matgen.Poisson2D(12, 12)
	b := fsaicomm.GenerateRHS(a, 1)
	p, err := fsaicomm.Prepare(a, fsaicomm.Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	for i, step := range []struct {
		so   fsaicomm.SolveOptions
		want int64
	}{
		{fsaicomm.SolveOptions{}, ranks},
		{fsaicomm.SolveOptions{Arch: "skylake", CGVariant: fsaicomm.CGFused}, ranks},
		{fsaicomm.SolveOptions{Arch: "a64fx"}, 2 * ranks},
		{fsaicomm.SolveOptions{Arch: "a64fx", CGVariant: fsaicomm.CGPipelined}, 2 * ranks},
		{fsaicomm.SolveOptions{Arch: "zen2", Transport: "tcp"}, 3 * ranks},
		{fsaicomm.SolveOptions{Arch: "zen2"}, 3 * ranks},
	} {
		if _, err := p.Solve(ctx, b, step.so); err != nil {
			t.Fatal(err)
		}
		if got := traces.Load(); got != step.want {
			t.Fatalf("after solve %d (%+v): %d cache traces, want %d", i+1, step.so, got, step.want)
		}
	}
	if _, err := p.SolveBatch(ctx, [][]float64{b, b}, fsaicomm.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := traces.Load(); got != 3*ranks {
		t.Fatalf("a batched solve traced: %d cache traces, want %d", got, 3*ranks)
	}
	if _, err := fsaicomm.SolveDistributed(a, b, fsaicomm.Options{Ranks: ranks}); err != nil {
		t.Fatal(err)
	}
	if got := traces.Load(); got != 4*ranks {
		t.Fatalf("after a full set-up solve: %d cache traces, want %d", got, 4*ranks)
	}
}

// TestCacheTraceRunsOncePerFactorPlan counts the traces across Refactor: a
// system refactored from one solved under two profiles, every rank keeping
// its factor plan, traces under neither; one whose values move the filtered
// pattern plans afresh and traces on every rank; and an SPAI+GMRES system,
// which has no plan to keep, traces whatever its donor did.
func TestCacheTraceRunsOncePerFactorPlan(t *testing.T) {
	traces := mprun.CountTraces(t)
	const ranks = 3
	ctx := context.Background()
	plate := func(ky float64) *sparse.CSR { return matgen.DiagShift(matgen.ThermalAniso(13, 11, 1, ky), 0.05) }
	scaled := plate(1) // other values, the same filtered pattern
	for k := range scaled.Val {
		scaled.Val[k] *= 4
	}
	for _, tc := range []struct {
		name     string
		opt      fsaicomm.Options
		a1, a2   *sparse.CSR
		replan   bool
		retraces int64
	}{
		{"kept plans", fsaicomm.Options{Method: fsaicomm.FSAIEComm, Filter: 0.05, Ranks: ranks}, plate(1), scaled, false, 0},
		{"moved pattern", fsaicomm.Options{Method: fsaicomm.FSAIEComm, Filter: 0.05, Ranks: ranks}, plate(1), plate(0.02), true, 2 * ranks},
		{"spai+gmres", fsaicomm.Options{Method: fsaicomm.SPAI, Solver: fsaicomm.SolverGMRES, SPAISteps: 1, Ranks: ranks},
			fsaicomm.GenerateConvectionDiffusion2D(12, 10, 4), fsaicomm.GenerateConvectionDiffusion2D(12, 10, 9), false, 2 * ranks},
	} {
		donor, err := fsaicomm.Prepare(tc.a1, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		b := fsaicomm.GenerateRHS(tc.a1, 1)
		before := traces.Load()
		for _, arch := range []string{"skylake", "a64fx"} {
			if _, err := donor.Solve(ctx, b, fsaicomm.SolveOptions{Arch: arch}); err != nil {
				t.Fatal(err)
			}
		}
		if got := traces.Load() - before; got != 2*ranks {
			t.Fatalf("%s: the donor's first solves traced %d times, want %d", tc.name, got, 2*ranks)
		}
		r, err := donor.Refactor(tc.a2)
		if err != nil {
			t.Fatal(err)
		}
		if r.SetupPhases().Replanned != tc.replan {
			t.Fatalf("%s: Replanned %v, want %v — the fixture no longer does what it is named for", tc.name, !tc.replan, tc.replan)
		}
		before = traces.Load()
		for _, arch := range []string{"skylake", "a64fx", "skylake"} {
			if _, err := r.Solve(ctx, b, fsaicomm.SolveOptions{Arch: arch}); err != nil {
				t.Fatal(err)
			}
		}
		if got := traces.Load() - before; got != tc.retraces {
			t.Errorf("%s: the refactored system's solves traced %d times, want %d", tc.name, got, tc.retraces)
		}
	}
}

// TestModeledPhasesUsesWorstRank: the modeled solve is the slowest rank's
// iteration report scaled by the iteration count, and no ranks cost nothing.
func TestModeledPhasesUsesWorstRank(t *testing.T) {
	var costs []mprun.IterCostInputs
	for _, flops := range []int64{1e6, 5e6, 2e6} {
		costs = append(costs, mprun.IterCostInputs{Overlap: archmodel.OverlapCost{Compute: archmodel.RankCost{Flops: flops},
			Windows: []archmodel.CommWindow{{Name: "reduction", Comm: archmodel.RankCost{CommMsgs: 1}}}}})
	}
	worst := archmodel.Skylake.OverlapReport(costs[1].Overlap)
	if got := mprun.ModeledPhases(archmodel.Skylake, 10, costs); !reflect.DeepEqual(got, worst.Scale(10)) || got.TotalSec != 10*worst.TotalSec {
		t.Fatalf("ModeledPhases = %+v, want the worst rank's report scaled, %+v", got, worst.Scale(10))
	}
	if mprun.ModeledPhases(archmodel.Skylake, 10, nil).TotalSec != 0 {
		t.Fatal("empty ranks should cost 0")
	}
}
