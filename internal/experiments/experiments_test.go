package experiments

import (
	"bytes"
	"strings"
	"testing"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

// tinySet is a fast catalog for tests.
func tinySet() []testsets.Spec {
	return []testsets.Spec{
		{ID: 1, Name: "tiny-poisson", Class: "2D/3D Problem",
			Gen: func() *sparse.CSR { return matgen.Poisson2D(16, 16) }},
		{ID: 2, Name: "tiny-thermal", Class: "Thermal Problem",
			Gen: func() *sparse.CSR { return matgen.ThermalAniso(14, 14, 1, 30) }},
		{ID: 3, Name: "tiny-elastic", Class: "Structural Problem",
			Gen: func() *sparse.CSR { return matgen.Elasticity2D(9, 9, 5) }},
	}
}

func tinyRunner(arch archmodel.Profile) *Runner {
	r := NewRunner(arch)
	r.RanksOf = func(nnz int) int { return 3 }
	return r
}

func TestRunBasicResult(t *testing.T) {
	r := tinyRunner(archmodel.Skylake)
	spec := tinySet()[0]
	base, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged || base.Iterations <= 0 || base.SolveTime <= 0 {
		t.Fatalf("bad base result: %+v", base)
	}
	ext, err := r.Run(spec, core.FSAIEComm, 0.01, core.DynamicFilter)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Iterations >= base.Iterations {
		t.Fatalf("FSAIE-Comm %d iters not below FSAI %d", ext.Iterations, base.Iterations)
	}
	if ext.PctNNZ <= 0 {
		t.Fatalf("PctNNZ = %v, want > 0", ext.PctNNZ)
	}
	if ext.SolveTime >= base.SolveTime {
		t.Fatalf("modeled time did not improve: %v vs %v", ext.SolveTime, base.SolveTime)
	}
}

func TestRunMemoization(t *testing.T) {
	r := tinyRunner(archmodel.Skylake)
	spec := tinySet()[0]
	a, err := r.Run(spec, core.FSAIEComm, 0.05, core.StaticFilter)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(spec, core.FSAIEComm, 0.05, core.StaticFilter)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || a.SolveTime != b.SolveTime || a.PctNNZ != b.PctNNZ {
		t.Fatal("memoized result differs")
	}
}

func TestCommBytesIdenticalAcrossMethods(t *testing.T) {
	r := tinyRunner(archmodel.Skylake)
	spec := tinySet()[0]
	base, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := r.Run(spec, core.FSAIEComm, 0, core.StaticFilter)
	if err != nil {
		t.Fatal(err)
	}
	if base.CommBytesPerIter != ext.CommBytesPerIter {
		t.Fatalf("per-iteration traffic differs: %v vs %v", base.CommBytesPerIter, ext.CommBytesPerIter)
	}
}

func TestTable1Output(t *testing.T) {
	r := tinyRunner(archmodel.Skylake)
	var buf bytes.Buffer
	if err := Table1(&buf, r, tinySet(), 0.01); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"tiny-poisson", "FSAIE-Comm", "%NNZ", "Iter"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFilterGridShapes(t *testing.T) {
	r := tinyRunner(archmodel.Skylake)
	rows, err := FilterGrid(r, tinySet(), core.FSAIEComm, core.DynamicFilter, []float64{0.01, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // two filters + Best Filter
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[2].Label != "Best Filter" {
		t.Fatalf("last row label %q", rows[2].Label)
	}
	// Best Filter cannot be worse than any single filter on average time.
	if rows[2].AvgTimeImp < rows[0].AvgTimeImp-1e-9 || rows[2].AvgTimeImp < rows[1].AvgTimeImp-1e-9 {
		t.Fatalf("best filter average below individual filters: %+v", rows)
	}
	// Larger filters keep fewer entries → no larger iteration improvement.
	if rows[1].AvgIterImp > rows[0].AvgIterImp+1e-9 {
		t.Fatalf("filter 0.2 iter improvement %v above filter 0.01 %v", rows[1].AvgIterImp, rows[0].AvgIterImp)
	}
}

func TestPerMatrixSeries(t *testing.T) {
	r := tinyRunner(archmodel.Skylake)
	best, fixed, err := PerMatrixTimeDecrease(r, tinySet(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 3 || len(fixed) != 3 {
		t.Fatalf("series lengths %d/%d", len(best), len(fixed))
	}
	for i := range best {
		if best[i].Value < fixed[i].Value-1e-9 {
			t.Fatalf("best (%v) below fixed (%v) for %s", best[i].Value, fixed[i].Value, best[i].Spec.Name)
		}
	}
}

func TestHistogramSeriesMisses(t *testing.T) {
	r := tinyRunner(archmodel.Skylake)
	base, ext, err := HistogramSeries(r, tinySet(), "misses")
	if err != nil {
		t.Fatal(err)
	}
	var bAvg, eAvg float64
	for i := range base {
		bAvg += base[i].Value
		eAvg += ext[i].Value
	}
	// The extension reduces misses per nonzero (Figure 3a's claim).
	if eAvg >= bAvg {
		t.Fatalf("extension did not reduce misses/nnz: %v vs %v", eAvg, bAvg)
	}
	if _, _, err := HistogramSeries(r, tinySet(), "bogus"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestWriteFigureAndHistogramOutputs(t *testing.T) {
	r := tinyRunner(archmodel.Skylake)
	var buf bytes.Buffer
	if err := WritePerMatrixFigure(&buf, r, tinySet(), 0.01); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AVERAGE") {
		t.Fatal("figure output missing average row")
	}
	buf.Reset()
	if err := WriteHistogram(&buf, r, tinySet(), "gflops", "GFLOP/s per process"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FSAIE-Comm") {
		t.Fatal("histogram output missing series")
	}
}

func TestA64FXGainsExceedSkylake(t *testing.T) {
	// The paper's headline architecture effect: 256-byte lines admit larger
	// extensions and larger iteration reductions.
	set := tinySet()
	sk := tinyRunner(archmodel.Skylake)
	ax := tinyRunner(archmodel.A64FX)
	var skIter, axIter float64
	for _, spec := range set {
		b1, err := sk.Run(spec, core.FSAI, 0, core.StaticFilter)
		if err != nil {
			t.Fatal(err)
		}
		e1, err := sk.Run(spec, core.FSAIEComm, 0.01, core.DynamicFilter)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := ax.Run(spec, core.FSAI, 0, core.StaticFilter)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := ax.Run(spec, core.FSAIEComm, 0.01, core.DynamicFilter)
		if err != nil {
			t.Fatal(err)
		}
		skIter += improvementPct(float64(b1.Iterations), float64(e1.Iterations))
		axIter += improvementPct(float64(b2.Iterations), float64(e2.Iterations))
	}
	if axIter <= skIter {
		t.Fatalf("A64FX iteration gains (%.2f) not above Skylake (%.2f)", axIter, skIter)
	}
}

func TestImbalanceStudyOutput(t *testing.T) {
	r := tinyRunner(archmodel.Skylake)
	spec := testsets.Spec{ID: 9, Name: "tiny-imbalanced", Class: "2D/3D Problem",
		Gen: func() *sparse.CSR { return matgen.ImbalancedMesh(20, 20, 0.25, 8, 3) }}
	s, err := RunImbalanceStudy(r, spec, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s.DynamicIndex < s.StaticIndex {
		t.Fatalf("dynamic filtering worsened imbalance: %.3f vs %.3f", s.DynamicIndex, s.StaticIndex)
	}
	var buf bytes.Buffer
	if err := WriteImbalanceStudy(&buf, r, spec, 0.01); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dynamic filter") {
		t.Fatal("study output incomplete")
	}
}

func TestHybridTable(t *testing.T) {
	set := tinySet()[:2]
	mk := func(cores int) *Runner {
		r := tinyRunner(archmodel.Skylake.WithCoresPerProcess(cores))
		return r
	}
	rows, err := Hybrid(mk, set, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, h := range rows {
		if h.IterDecC <= 0 {
			t.Fatalf("cores=%d: FSAIE-Comm iteration decrease %.2f not positive", h.CoresPerProcess, h.IterDecC)
		}
	}
	var buf bytes.Buffer
	if err := WriteHybrid(&buf, mk, set, []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CPU/Process") {
		t.Fatal("hybrid output incomplete")
	}
	// The header names the profile the sweep runs on.
	buf.Reset()
	ax := func(cores int) *Runner { return tinyRunner(archmodel.A64FX.WithCoresPerProcess(cores)) }
	if err := WriteHybrid(&buf, ax, tinySet(), []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "arch a64fx") {
		t.Fatalf("hybrid header does not name a64fx:\n%s", buf.String())
	}
}

// TestPipelinedModeledBeatsFused pins the acceptance criterion for the
// overlap-credit model: on a ranks>=4 benchmark configuration
// (Queen_4147-sim, the Table 2 3-D Poisson instance), the modeled solve
// time of the pipelined loop is strictly below the fused loop's, because
// the single reduction hides behind boundary-row compute instead of being
// exposed, while iteration counts stay within the +-2 band.
func TestPipelinedModeledBeatsFused(t *testing.T) {
	spec, err := testsets.ByName("Queen_4147-sim")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(archmodel.Skylake)
	r.RanksOf = func(int) int { return 4 }
	r.Variant = krylov.CGFused
	fused, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
	if err != nil {
		t.Fatal(err)
	}
	r.Variant = krylov.CGPipelined
	pipe, err := r.Run(spec, core.FSAI, 0, core.StaticFilter)
	if err != nil {
		t.Fatal(err)
	}
	if d := pipe.Iterations - fused.Iterations; d < -2 || d > 2 {
		t.Fatalf("pipelined iterations %d vs fused %d", pipe.Iterations, fused.Iterations)
	}
	if pipe.SolveTime >= fused.SolveTime {
		t.Fatalf("pipelined modeled time %v not below fused %v", pipe.SolveTime, fused.SolveTime)
	}
	// Both hiding variants stay at one collective per iteration.
	if pipe.CollectiveCalls > fused.CollectiveCalls+8 {
		t.Fatalf("pipelined collectives %d far above fused %d", pipe.CollectiveCalls, fused.CollectiveCalls)
	}
}
