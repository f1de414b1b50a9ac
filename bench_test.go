package fsaicomm

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (each regenerates the corresponding rows/series on the quick
// catalog subset and reports the headline aggregate as a custom metric),
// plus microbenchmarks of the individual kernels. The full 39-matrix
// campaign is driven by cmd/fsaibench; EXPERIMENTS.md records paper-vs-
// measured numbers for both.

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/cache"
	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/experiments"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/partition"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
	"fsaicomm/internal/vecops"
)

// quick returns the class-representative subset used by the benches.
func quick() []testsets.Spec { return testsets.QuickSet() }

func newRunner(arch archmodel.Profile) *experiments.Runner {
	return experiments.NewRunner(arch)
}

// avgTimeImp runs the FSAIE-Comm dynamic grid and returns the best-filter
// average time improvement, the headline number of Tables 3/5/6/7.
func avgTimeImp(b *testing.B, r *experiments.Runner, set []testsets.Spec) float64 {
	rows, err := experiments.FilterGrid(r, set, core.FSAIEComm, core.DynamicFilter, experiments.PaperFilters)
	if err != nil {
		b.Fatal(err)
	}
	return rows[len(rows)-1].AvgTimeImp
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(archmodel.Skylake)
		if err := experiments.Table1(io.Discard, r, quick(), 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	set := testsets.Table2()[:3]
	for i := 0; i < b.N; i++ {
		r := newRunner(archmodel.Zen2)
		r.RanksOf = testsets.LargeRanks
		if err := experiments.Table1(io.Discard, r, set, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		imp = avgTimeImp(b, newRunner(archmodel.Skylake), quick())
	}
	b.ReportMetric(imp, "avg-time-imp-%")
}

func BenchmarkTable4(b *testing.B) {
	set := quick()[:3]
	var rows []experiments.HybridRow
	for i := 0; i < b.N; i++ {
		mk := func(cores int) *experiments.Runner {
			r := newRunner(archmodel.Skylake.WithCoresPerProcess(cores))
			r.RanksOf = func(nnz int) int {
				return testsets.RanksFor(nnz, 2048*cores, 1, 16)
			}
			return r
		}
		var err error
		rows, err = experiments.Hybrid(mk, set, []int{1, 8, 48})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].TimeDecC, "48c-time-dec-%")
}

func BenchmarkTable5(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		imp = avgTimeImp(b, newRunner(archmodel.A64FX), quick())
	}
	b.ReportMetric(imp, "avg-time-imp-%")
}

func BenchmarkTable6(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		imp = avgTimeImp(b, newRunner(archmodel.Zen2), quick())
	}
	b.ReportMetric(imp, "avg-time-imp-%")
}

func BenchmarkTable7(b *testing.B) {
	set := testsets.Table2()[:3]
	var imp float64
	for i := 0; i < b.N; i++ {
		r := newRunner(archmodel.Zen2)
		r.RanksOf = testsets.LargeRanks
		imp = avgTimeImp(b, r, set)
	}
	b.ReportMetric(imp, "avg-time-imp-%")
}

func benchPerMatrixFigure(b *testing.B, arch archmodel.Profile, fixed float64) {
	var avg float64
	for i := 0; i < b.N; i++ {
		r := newRunner(arch)
		best, _, err := experiments.PerMatrixTimeDecrease(r, quick(), fixed)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, p := range best {
			sum += p.Value
		}
		avg = sum / float64(len(best))
	}
	b.ReportMetric(avg, "avg-best-time-dec-%")
}

func BenchmarkFigure2(b *testing.B) { benchPerMatrixFigure(b, archmodel.Skylake, 0.01) }
func BenchmarkFigure4(b *testing.B) { benchPerMatrixFigure(b, archmodel.A64FX, 0.05) }
func BenchmarkFigure6(b *testing.B) { benchPerMatrixFigure(b, archmodel.Zen2, 0.05) }

func BenchmarkFigure8(b *testing.B) {
	set := testsets.Table2()[:3]
	var avg float64
	for i := 0; i < b.N; i++ {
		r := newRunner(archmodel.Zen2)
		r.RanksOf = testsets.LargeRanks
		best, _, err := experiments.PerMatrixTimeDecrease(r, set, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, p := range best {
			sum += p.Value
		}
		avg = sum / float64(len(best))
	}
	b.ReportMetric(avg, "avg-best-time-dec-%")
}

func benchHistogram(b *testing.B, arch archmodel.Profile, metric string) {
	var baseAvg, extAvg float64
	for i := 0; i < b.N; i++ {
		r := newRunner(arch)
		base, ext, err := experiments.HistogramSeries(r, quick(), metric)
		if err != nil {
			b.Fatal(err)
		}
		baseAvg, extAvg = 0, 0
		for k := range base {
			baseAvg += base[k].Value
			extAvg += ext[k].Value
		}
		baseAvg /= float64(len(base))
		extAvg /= float64(len(ext))
	}
	b.ReportMetric(baseAvg, "fsai-avg")
	b.ReportMetric(extAvg, "fsaiecomm-avg")
}

func BenchmarkFigure3aMisses(b *testing.B) { benchHistogram(b, archmodel.Skylake, "misses") }
func BenchmarkFigure3bGFlops(b *testing.B) { benchHistogram(b, archmodel.Skylake, "gflops") }
func BenchmarkFigure5aMisses(b *testing.B) { benchHistogram(b, archmodel.A64FX, "misses") }
func BenchmarkFigure5bGFlops(b *testing.B) { benchHistogram(b, archmodel.A64FX, "gflops") }
func BenchmarkFigure7GFlops(b *testing.B)  { benchHistogram(b, archmodel.Zen2, "gflops") }

func BenchmarkImbalanceStudy(b *testing.B) {
	spec, err := testsets.ByName("consph-sim")
	if err != nil {
		b.Fatal(err)
	}
	var study experiments.ImbalanceStudy
	for i := 0; i < b.N; i++ {
		r := newRunner(archmodel.Skylake)
		study, err = experiments.RunImbalanceStudy(r, spec, 0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(study.DynamicIndex, "dynamic-imb-index")
}

// ---- Kernel microbenchmarks ----

func BenchmarkSpMVPoisson3D(b *testing.B) {
	a := matgen.Poisson3D(24, 24, 24)
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.SetBytes(int64(12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

func BenchmarkFSAIBuild(b *testing.B) {
	a := matgen.Poisson2D(48, 48)
	s := fsai.LowerPattern(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fsai.Build(a, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFSAIBuildExtended256(b *testing.B) {
	a := matgen.Poisson2D(48, 48)
	s := fsai.LowerPattern(a)
	ext, err := core.ExtendPatternSerial(s, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fsai.Build(a, ext); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtendPattern64(b *testing.B) {
	a := matgen.Elasticity2D(30, 30, 1)
	s := fsai.LowerPattern(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExtendPatternSerial(s, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtendPattern256(b *testing.B) {
	a := matgen.Elasticity2D(30, 30, 1)
	s := fsai.LowerPattern(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExtendPatternSerial(s, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialPCGSolve(b *testing.B) {
	a := matgen.Poisson2D(40, 40)
	rhs := matgen.RandomRHS(a.Rows, 1, a.MaxNorm())
	g, err := fsai.Build(a, fsai.LowerPattern(a))
	if err != nil {
		b.Fatal(err)
	}
	pre := krylov.NewSplit(g, g.Transpose())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, a.Rows)
		if _, err := krylov.CG(a, rhs, x, pre, krylov.Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedSolve8Ranks(b *testing.B) {
	a := GeneratePoisson3D(16, 16, 16)
	rhs := GenerateRHS(a, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveDistributed(a, rhs, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultilevelPartition(b *testing.B) {
	a := matgen.Poisson2D(64, 64)
	g := partition.GraphFromMatrix(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Multilevel(g, 8, partition.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheTracePrecond(b *testing.B) {
	a := matgen.Poisson2D(48, 48)
	g, err := fsai.Build(a, fsai.LowerPattern(a))
	if err != nil {
		b.Fatal(err)
	}
	gt := g.Transpose()
	sim := cache.MustNew(32*1024, 64, 8)
	b.SetBytes(int64(8 * (g.NNZ() + gt.NNZ())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.TracePrecondProduct(g, gt, sim)
	}
}

func BenchmarkHaloExchange(b *testing.B) {
	// Measures one distributed SpMV (halo update + local product) amortized
	// inside a CG solve over the simulated runtime.
	a := matgen.Poisson2D(48, 48)
	n := a.Rows
	layout := distmat.NewUniformLayout(n, 4)
	_ = layout
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveDistributed(a, x, Options{Method: FSAI, Ranks: 4, MaxIter: 50, Tol: 1e-30})
		_ = res
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticExtendedSetup measures the static FSAIE-Comm pipeline:
// extension + two-pass filtered build.
func BenchmarkStaticExtendedSetup(b *testing.B) {
	a := matgen.Poisson2D(40, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.BuildSerial(a, core.FSAIEComm, 0.01, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Serial vs. parallel kernel benchmarks ----
//
// The pairs below pin the worker-pool speedup on a ~50k-row problem
// (Poisson3D 37³ = 50653 rows): run with -cpu to sweep GOMAXPROCS. The
// Workers1 variants are the serial baselines; the Parallel variants use
// Workers = GOMAXPROCS. Outputs are bit-identical by construction, so the
// only difference the pool may make is the ns/op column.

func benchBuildWorkers(b *testing.B, workers int) {
	a := matgen.Poisson3D(37, 37, 37)
	s := fsai.LowerPattern(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fsai.BuildWorkers(a, s, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFSAIBuild50kWorkers1(b *testing.B) { benchBuildWorkers(b, 1) }
func BenchmarkFSAIBuild50kParallel(b *testing.B) { benchBuildWorkers(b, 0) }

func benchPatternPower(b *testing.B, workers int) {
	a := matgen.Poisson3D(37, 37, 37)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.PatternPowerWorkers(a, 2, workers)
	}
}

func BenchmarkPatternPower50kWorkers1(b *testing.B) { benchPatternPower(b, 1) }
func BenchmarkPatternPower50kParallel(b *testing.B) { benchPatternPower(b, 0) }

// ---- Communication-variant benchmarks ----
//
// Classic vs fused distributed CG and blocking vs overlapped SpMV on the
// same ~50k-row Poisson3D case, 4 ranks. The fused loop trades three
// per-iteration reductions for one and merges the vector updates into
// single-pass kernels; the overlap SpMV posts halo sends before computing
// interior rows. Names contain "50k" so `make bench` picks them up.

func benchDistCG50k(b *testing.B, variant CGVariant) {
	a := matgen.Poisson3D(37, 37, 37)
	rhs := matgen.RandomRHS(a.Rows, 3, a.MaxNorm())
	b.ResetTimer()
	var modeled float64
	for i := 0; i < b.N; i++ {
		res, err := SolveDistributed(a, rhs, Options{
			Method: FSAI, Ranks: 4, Tol: 1e-6, CGVariant: variant, Partitioner: "block",
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("not converged")
		}
		modeled = res.ModeledSolveTime
	}
	// The serialized simulated runtime cannot show overlap in ns/op; the
	// overlap-credit cost model can (DESIGN.md §4d).
	b.ReportMetric(modeled*1e3, "modeled-ms/solve")
}

func BenchmarkDistCG50kClassic(b *testing.B)   { benchDistCG50k(b, CGClassic) }
func BenchmarkDistCG50kOverlap(b *testing.B)   { benchDistCG50k(b, CGClassicOverlap) }
func BenchmarkDistCG50kFused(b *testing.B)     { benchDistCG50k(b, CGFused) }
func BenchmarkDistCG50kPipelined(b *testing.B) { benchDistCG50k(b, CGPipelined) }

func benchDistSpMV50k(b *testing.B, overlap bool) {
	a := matgen.Poisson3D(37, 37, 37)
	n := a.Rows
	const nranks = 4
	l := distmat.NewUniformLayout(n, nranks)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.SetBytes(int64(12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := simmpi.Run(nranks, time.Hour, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi), distmat.WithOverlap())
			scratch := distmat.NewDistVec(op.LZ)
			y := make([]float64, hi-lo)
			// Amortize plan construction over many products, like a solve.
			for k := 0; k < 32; k++ {
				if overlap {
					op.Overlap().MulVecOverlap(c, x[lo:hi], y, scratch, nil)
				} else {
					op.MulVec(c, x[lo:hi], y, scratch, nil)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistSpMV50kBlocking(b *testing.B) { benchDistSpMV50k(b, false) }
func BenchmarkDistSpMV50kOverlap(b *testing.B)  { benchDistSpMV50k(b, true) }

// ---- Batched multi-RHS benchmarks ----
//
// SpMM vs k independent SpMVs, and the batched prepared solve vs a loop of
// scalar solves, on the same ~50k-row Poisson3D case. The SpMM kernel
// streams the matrix once for all k columns where the SpMV loop reads it k
// times, and the batched solve pays one k-wide halo/reduction schedule
// where the loop pays k narrow ones. Names contain "50k" so `make bench`
// picks them up.

func benchSpMMvsLoop(b *testing.B, k int, batched bool) {
	a := matgen.Poisson3D(37, 37, 37)
	n := a.Rows
	x := make([]float64, n*k)
	y := make([]float64, n*k)
	for i := range x {
		x[i] = float64(i % 7)
	}
	xc := make([]float64, n)
	yc := make([]float64, n)
	b.SetBytes(int64(k * 12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			a.MulMat(x, y, k)
		} else {
			for c := 0; c < k; c++ {
				vecops.UnpackColumn(xc, x, k, c)
				a.MulVec(xc, yc)
				vecops.PackColumn(y, yc, k, c)
			}
		}
	}
}

func BenchmarkSpMM50kx4(b *testing.B)  { benchSpMMvsLoop(b, 4, true) }
func BenchmarkSpMV50kx4(b *testing.B)  { benchSpMMvsLoop(b, 4, false) }
func BenchmarkSpMM50kx16(b *testing.B) { benchSpMMvsLoop(b, 16, true) }
func BenchmarkSpMV50kx16(b *testing.B) { benchSpMMvsLoop(b, 16, false) }

func benchSolveBatch50k(b *testing.B, batched bool) {
	const k = 8
	a := matgen.Poisson3D(37, 37, 37)
	p, err := Prepare(a, Options{Method: FSAI, Ranks: 4, Partitioner: "block"})
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([][]float64, k)
	for c := range rhs {
		rhs[c] = matgen.RandomRHS(a.Rows, int64(11+c), a.MaxNorm())
	}
	so := SolveOptions{CGVariant: CGClassic}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			br, err := p.SolveBatch(ctx, rhs, so)
			if err != nil {
				b.Fatal(err)
			}
			if !br.AllConverged() {
				b.Fatal("not converged")
			}
		} else {
			for c := range rhs {
				res, err := p.Solve(ctx, rhs[c], so)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("not converged")
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/rhs")
}

func BenchmarkPreparedSolveBatch50k(b *testing.B)  { benchSolveBatch50k(b, true) }
func BenchmarkPreparedSolveLooped50k(b *testing.B) { benchSolveBatch50k(b, false) }

// ---- Set-up path benchmarks ----
//
// The cold-setup workload of the repo benchmark spends most of a unit in
// Prepare on this same 37³ system (2 ranks, fsaie-comm, default filter).
// The three benches below time the whole set-up and its two assembly
// kernels; names contain "50k" so `make bench` picks them up.

func BenchmarkPrepare50k(b *testing.B) {
	a := matgen.Poisson3D(37, 37, 37)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(a, Options{Method: FSAIEComm, Ranks: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefactor50k is what the cold-setup workload pays per upload once
// the pattern is known: the same system with other values on its diagonal,
// set up by the factor phase alone on the structure of the first Prepare.
func BenchmarkRefactor50k(b *testing.B) {
	a := matgen.Poisson3D(37, 37, 37)
	p, err := Prepare(a, Options{Method: FSAIEComm, Ranks: 2})
	if err != nil {
		b.Fatal(err)
	}
	a2 := matgen.DiagShift(a, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Refactor(a2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCOOToCSR50k(b *testing.B) {
	a := matgen.Poisson3D(37, 37, 37)
	// Column-major insertion order: every row arrives sorted but the rows
	// themselves are interleaved, the order a transpose or a permutation
	// produces.
	at := a.Transpose()
	c := sparse.NewCOO(a.Rows, a.Cols)
	for j := 0; j < at.Rows; j++ {
		rows, vals := at.Row(j)
		for k, i := range rows {
			c.Add(i, j, vals[k])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := c.ToCSR(); m.NNZ() != a.NNZ() {
			b.Fatalf("nnz %d, want %d", m.NNZ(), a.NNZ())
		}
	}
}

func BenchmarkTransposeDist50k(b *testing.B) {
	a := matgen.Poisson3D(37, 37, 37)
	const nranks = 2
	l := distmat.NewUniformLayout(a.Rows, nranks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simmpi.Run(nranks, time.Minute, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			distmat.TransposeDist(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Warm-path benchmarks ----
//
// The warm-sim and batch-coalesce workloads of the repo benchmark re-solve
// this 37³ system (2 ranks, fsaie-comm, default filter) from a cached
// Prepare. BenchmarkRowKernel50k times the product kernels alone on rank
// 0's three operators — "runs" is the 1-wide product over the operator's
// run index, MulVec where it has none — and reports ns per stored entry (per
// column for the k-wide products); the two solve benches time the whole
// in-process request under them. Together they are a before/after that
// needs no server; names contain "50k" so `make bench` picks them up.
// Three more put the ranks'
// waiting policy where it can cost: two solves at once on the host's cores,
// more ranks than cores, and the small system of warm-tcp, whose ranks meet
// every few tens of microseconds (PreparedSolve8100 is named in the pattern).

func prepareWarm50k(b *testing.B) (*Matrix, *Prepared) {
	return prepareWarm(b, matgen.Poisson3D(37, 37, 37), 2)
}

func prepareWarm(b *testing.B, a *Matrix, ranks int) (*Matrix, *Prepared) {
	p, err := Prepare(a, Options{Method: FSAIEComm, Ranks: ranks})
	if err != nil {
		b.Fatal(err)
	}
	return a, p
}

// benchPreparedSolves times rounds of `atOnce` concurrent solves of one
// right-hand side on p.
func benchPreparedSolves(b *testing.B, a *Matrix, p *Prepared, atOnce int) {
	rhs := GenerateRHS(a, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < atOnce; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := p.Solve(context.Background(), rhs, SolveOptions{})
				if err != nil || !res.Converged {
					b.Errorf("converged=%v err=%v", res != nil && res.Converged, err)
				}
			}()
		}
		wg.Wait()
	}
}

func BenchmarkRowKernel50k(b *testing.B) {
	_, p := prepareWarm50k(b)
	r0 := p.parts[0]
	for _, o := range []struct {
		name string
		lz   *distmat.Localized
	}{{"A", r0.A.LZ}, {"G", r0.G.LZ}, {"GT", r0.GT.LZ}} {
		m, m32 := o.lz.M, o.lz.M32()
		x := make([]float64, 4*m.Cols)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		y := make([]float64, 4*m.Rows)
		scalar := 0.0 // ns per stored entry of the f64 product, for the k2 ratio
		for _, kc := range []struct {
			name string
			cols int
			mul  func()
		}{
			{"f64", 1, func() { m.MulVec(x[:m.Cols], y[:m.Rows]) }},
			{"f32", 1, func() { m32.MulVec(x[:m.Cols], y[:m.Rows]) }},
			{"runs", 1, func() { m.MulVecRuns(o.lz.Runs(), x[:m.Cols], y[:m.Rows]) }},
			{"f32runs", 1, func() { m32.MulVecRuns(o.lz.Runs(), x[:m.Cols], y[:m.Rows]) }},
			{"k2", 2, func() { m.MulMatCols(x[:2*m.Cols], y[:2*m.Rows], 2, nil) }},
			{"k2mask1", 1, func() { m.MulMatCols(x[:2*m.Cols], y[:2*m.Rows], 2, []int{1}) }},
			{"k2mask01", 2, func() { m.MulMatCols(x[:2*m.Cols], y[:2*m.Rows], 2, []int{0, 1}) }},
			{"k4", 4, func() { m.MulMatCols(x, y, 4, nil) }},
			{"k1batch", 1, func() { m.MulMatCols(x[:m.Cols], y[:m.Rows], 1, nil) }},
		} {
			b.Run(o.name+"/"+kc.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kc.mul()
				}
				perEntry := float64(b.Elapsed().Nanoseconds()) / float64(b.N*m.NNZ())
				b.ReportMetric(perEntry/float64(kc.cols), "ns/entry")
				switch {
				case kc.name == "f64":
					scalar = perEntry
				case kc.name == "k2" && scalar > 0:
					// The "two for the price of one" number: a product of two
					// columns over the scalar product, entry for entry.
					b.ReportMetric(perEntry/scalar, "k2/f64")
				}
			})
		}
	}
}

func BenchmarkPreparedSolve50k(b *testing.B) {
	a, p := prepareWarm50k(b)
	benchPreparedSolves(b, a, p, 1)
}

func BenchmarkTwoPreparedSolves50k(b *testing.B) {
	a, p := prepareWarm50k(b)
	benchPreparedSolves(b, a, p, 2)
}

func BenchmarkPreparedSolve4Ranks50k(b *testing.B) {
	a, p := prepareWarm(b, matgen.Poisson3D(37, 37, 37), 4)
	benchPreparedSolves(b, a, p, 1)
}

func BenchmarkPreparedSolve8100(b *testing.B) {
	a, p := prepareWarm(b, matgen.CFDDiffusion(90, 90, 500, 1), 2)
	benchPreparedSolves(b, a, p, 1)
}

// BenchmarkPreparedSolveBatch2_50k is a warm round of two right-hand sides,
// on the classic loop and on the fused one the batch-coalesce workload of the
// repo benchmark runs.
func BenchmarkPreparedSolveBatch2_50k(b *testing.B) {
	a, p := prepareWarm50k(b)
	rhs := [][]float64{GenerateRHS(a, 1), GenerateRHS(a, 2)}
	for _, v := range []CGVariant{CGClassic, CGFused} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				br, err := p.SolveBatch(context.Background(), rhs, SolveOptions{CGVariant: v})
				if err != nil || !br.AllConverged() {
					b.Fatalf("err=%v", err)
				}
			}
		})
	}
}
