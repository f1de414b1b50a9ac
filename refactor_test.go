package fsaicomm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/mprun"
)

// plate is the 5-point conduction operator of an nx×ny plate with
// conductivities kx and ky and a diagonal shift: one sparsity pattern
// whatever the values, SPD for positive arguments. With ky far below kx the
// factor's vertical couplings are the small ones a Filter drops.
func plate(nx, ny int, kx, ky, shift float64) *Matrix {
	return matgen.DiagShift(matgen.ThermalAniso(nx, ny, kx, ky), shift)
}

// sameFloats compares bit for bit, so that −0 is not 0 and NaN is NaN.
func sameFloats(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// equalHeld says in what, if anything, two held operators differ: localized
// structure, halo list, value bits, halo schedule, need counts.
func equalHeld(got, want *mprun.HeldOp) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("held %v, want held %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	g, w := got.LZ, want.LZ
	switch {
	case g.Lo != w.Lo || g.Hi != w.Hi || !slices.Equal(g.Halo, w.Halo):
		return fmt.Errorf("row range or halo list differ")
	case g.M.Rows != w.M.Rows || g.M.Cols != w.M.Cols || !slices.Equal(g.M.RowPtr, w.M.RowPtr) || !slices.Equal(g.M.ColIdx, w.M.ColIdx):
		return fmt.Errorf("localized pattern differs (%d entries, want %d)", g.M.NNZ(), w.M.NNZ())
	case !sameFloats(g.M.Val, w.M.Val):
		return fmt.Errorf("values differ")
	case !distmat.PlanEqual(distmat.NewHaloPlanFromSchedule(got.Send, got.Recv), distmat.NewHaloPlanFromSchedule(want.Send, want.Recv)):
		return fmt.Errorf("halo schedules differ")
	}
	return nil
}

// equalPrepared fails the test unless got holds what want holds: layout,
// permutation, every rank's operators bit for bit, the build statistics.
func equalPrepared(t *testing.T, name string, got, want *Prepared) {
	t.Helper()
	if got.n != want.n || got.ranks != want.ranks || !slices.Equal(got.st.oldToNew, want.st.oldToNew) ||
		!slices.Equal(got.st.layout.Offsets, want.st.layout.Offsets) {
		t.Fatalf("%s: shape, layout or permutation differ", name)
	}
	if math.Float64bits(got.pct) != math.Float64bits(want.pct) || math.Float64bits(got.imbalance) != math.Float64bits(want.imbalance) {
		t.Errorf("%s: %% NNZ %v / imbalance %v, want %v / %v", name, got.pct, got.imbalance, want.pct, want.imbalance)
	}
	for r := range want.parts {
		g, w := &got.parts[r], &want.parts[r]
		for _, o := range []struct {
			name      string
			got, want *mprun.HeldOp
		}{{"A", g.A, w.A}, {"G", g.G, w.G}, {"GT", g.GT, w.GT}, {"M", g.M, w.M}} {
			if err := equalHeld(o.got, o.want); err != nil {
				t.Fatalf("%s: rank %d %s: %v", name, r, o.name, err)
			}
		}
	}
}

// equalSolve fails the test unless the two results agree in iterations,
// solution bits and every communication meter.
func equalSolve(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || hashX(got.X) != hashX(want.X) {
		t.Fatalf("%s: %d iterations (converged %v) x %s, want %d (%v) x %s", name,
			got.Iterations, got.Converged, hashX(got.X)[:12], want.Iterations, want.Converged, hashX(want.X)[:12])
	}
	g := [...]int64{got.CommBytes, got.CommMessages, got.CollectiveCalls, got.CollectiveBytes}
	w := [...]int64{want.CommBytes, want.CommMessages, want.CollectiveCalls, want.CollectiveBytes}
	if g != w || math.Float64bits(got.PctNNZIncrease) != math.Float64bits(want.PctNNZIncrease) {
		t.Fatalf("%s: meters %v %% NNZ %v, want %v %v", name, g, got.PctNNZIncrease, w, want.PctNNZIncrease)
	}
}

// sharesStructure fails the test unless child references parent's index
// arrays instead of holding its own: the same backing array, not an equal one.
func sharesStructure(t *testing.T, name string, child, parent *Prepared) {
	t.Helper()
	same := func(x, y []int) bool { return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0]) }
	if child.st != parent.st {
		t.Fatalf("%s: the refactored system holds a structure of its own", name)
	}
	for r := range parent.parts {
		c, p := &child.parts[r], &parent.parts[r]
		for _, o := range [][2]*mprun.HeldOp{{c.A, p.A}, {c.G, p.G}, {c.GT, p.GT}} {
			if o[0] == nil {
				continue
			}
			if !same(o[0].LZ.M.RowPtr, o[1].LZ.M.RowPtr) || !same(o[0].LZ.M.ColIdx, o[1].LZ.M.ColIdx) || !same(o[0].LZ.Halo, o[1].LZ.Halo) {
				t.Fatalf("%s: rank %d: localized structure copied, not shared", name, r)
			}
			for peer := range o[1].Send {
				if !same(o[0].Send[peer], o[1].Send[peer]) || !same(o[0].Recv[peer], o[1].Recv[peer]) {
					t.Fatalf("%s: rank %d: halo schedule copied, not shared", name, r)
				}
			}
		}
	}
}

// The bit-identity oracle of the symbolic/numeric split: over every set-up
// option that shapes a factor, on 1, 2 and 4 ranks under both partitioners,
// a system refactored from one prepared for other values — values that leave
// the filtered pattern standing, and values that move it — is the system
// Prepare makes of the new matrix: operators, schedules, statistics, and on
// either transport iterations, solution and meters. The chain a₁ → a₂ → a₃ is
// walked from each predecessor.
func TestRefactorEqualsPrepare(t *testing.T) {
	a1 := plate(13, 11, 1, 1, 0.05)
	a2 := plate(13, 11, 1, 0.02, 0.05) // vertical couplings nearly gone: the filtered pattern moves
	a3 := plate(13, 11, 1.3, 0.021, 0.07)
	n1 := GenerateConvectionDiffusion2D(12, 10, 4)
	n2 := GenerateConvectionDiffusion2D(12, 10, 9)
	n3 := GenerateConvectionDiffusion2D(12, 10, 2.5)

	type cell struct {
		name       string
		opt        Options
		a1, a2, a3 *Matrix
	}
	var cells []cell
	for _, part := range []string{"multilevel", "block"} {
		for _, ranks := range []int{1, 2, 4} {
			at := fmt.Sprintf("%s/%d", part, ranks)
			base := Options{Ranks: ranks, Partitioner: part}
			// Neither plain FSAI nor SPAI filters: one cell each.
			fsai, spai := base, base
			fsai.Method = FSAI
			spai.Method, spai.Solver, spai.SPAISteps = SPAI, SolverGMRES, 1
			cells = append(cells, cell{"fsai/" + at, fsai, a1, a2, a3}, cell{"spai/" + at, spai, n1, n2, n3})
			for _, method := range []Method{FSAIE, FSAIEComm} {
				for _, filter := range []float64{0, 0.01, 0.05, 0.5} {
					for _, strategy := range []FilterStrategy{StaticFilter, DynamicFilter} {
						o := base
						o.Method, o.Filter, o.Strategy = method, filter, strategy
						cells = append(cells, cell{fmt.Sprintf("%v/f%g/%v/%s", method, filter, strategy, at), o, a1, a2, a3})
					}
				}
			}
		}
	}
	ctx := context.Background()
	replans := 0
	for _, tc := range cells {
		p1, err := Prepare(tc.a1, tc.opt)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", tc.name, err)
		}
		r2, err := p1.Refactor(tc.a2)
		if err != nil {
			t.Fatalf("%s: Refactor: %v", tc.name, err)
		}
		r3, err := r2.Refactor(tc.a3)
		if err != nil {
			t.Fatalf("%s: Refactor of the refactored: %v", tc.name, err)
		}
		r13, err := p1.Refactor(tc.a3)
		if err != nil {
			t.Fatalf("%s: Refactor a₁ → a₃: %v", tc.name, err)
		}
		if r2.SetupPhases().Replanned {
			replans++
		}
		for _, ph := range []SetupPhases{r2.SetupPhases(), r3.SetupPhases()} {
			if ph.Partition != 0 || ph.Extend != 0 && tc.opt.Method != SPAI {
				t.Errorf("%s: a Refactor partitioned or extended: %+v", tc.name, ph)
			}
		}
		b := GenerateRHS(tc.a2, 5)
		for _, v := range []struct {
			name string
			got  *Prepared
			a    *Matrix
		}{{"a₂ from a₁", r2, tc.a2}, {"a₃ from a₂", r3, tc.a3}, {"a₃ from a₁", r13, tc.a3}} {
			name := tc.name + ": " + v.name
			want, err := Prepare(v.a, tc.opt)
			if err != nil {
				t.Fatalf("%s: Prepare: %v", name, err)
			}
			equalPrepared(t, name, v.got, want)
			ref, err := want.Solve(ctx, b, SolveOptions{})
			if err != nil {
				t.Fatalf("%s: reference solve: %v", name, err)
			}
			for _, transport := range []string{"sim", "tcp"} {
				if transport == "tcp" && (testing.Short() || v.got != r2) {
					continue // one process mesh per cell
				}
				got, err := v.got.Solve(ctx, b, SolveOptions{Transport: transport})
				if err != nil {
					t.Fatalf("%s: %s solve: %v", name, transport, err)
				}
				equalSolve(t, name+" over "+transport, got, ref)
			}
			v.got.Close()
		}
		if tc.opt.Method != SPAI && tc.opt.Filter == 0 && tc.opt.Strategy == StaticFilter {
			sharesStructure(t, tc.name, r2, p1)
			sharesStructure(t, tc.name, r3, p1)
		}
	}
	// The values were chosen so that some cells see their filtered pattern
	// move (and plan G afresh) and some do not.
	if replans == 0 || replans == len(cells) {
		t.Errorf("%d of %d cells re-planned their factor; the oracle wants both kinds", replans, len(cells))
	}
}

// TestRefactorModeledTimeEqualsPrepare walks TestRefactorEqualsPrepare's
// cells with every donor solved first, under two profiles, so that a system
// refactored from it that kept its factor plans models with the misses its
// donor traced: the modeled time of a₂ from a₁ and of a₃ from a₂ is, bit
// for bit and under both profiles, the one a fresh Prepare of the matrix
// models — whether the misses were inherited, or traced afresh after a
// replan or for SPAI.
func TestRefactorModeledTimeEqualsPrepare(t *testing.T) {
	a1 := plate(13, 11, 1, 1, 0.05)
	a2 := plate(13, 11, 1, 0.02, 0.05)
	a3 := plate(13, 11, 1.3, 0.021, 0.07)
	n1 := GenerateConvectionDiffusion2D(12, 10, 4)
	n2 := GenerateConvectionDiffusion2D(12, 10, 9)
	n3 := GenerateConvectionDiffusion2D(12, 10, 2.5)
	type cell struct {
		name       string
		opt        Options
		a1, a2, a3 *Matrix
	}
	var cells []cell
	for _, part := range []string{"multilevel", "block"} {
		for _, ranks := range []int{1, 2, 4} {
			at := fmt.Sprintf("%s/%d", part, ranks)
			base := Options{Ranks: ranks, Partitioner: part}
			fsai, spai := base, base
			fsai.Method = FSAI
			spai.Method, spai.Solver, spai.SPAISteps = SPAI, SolverGMRES, 1
			cells = append(cells, cell{"fsai/" + at, fsai, a1, a2, a3}, cell{"spai/" + at, spai, n1, n2, n3})
			for _, method := range []Method{FSAIE, FSAIEComm} {
				for _, filter := range []float64{0, 0.01, 0.05, 0.5} {
					for _, strategy := range []FilterStrategy{StaticFilter, DynamicFilter} {
						o := base
						o.Method, o.Filter, o.Strategy = method, filter, strategy
						cells = append(cells, cell{fmt.Sprintf("%v/f%g/%v/%s", method, filter, strategy, at), o, a1, a2, a3})
					}
				}
			}
		}
	}
	ctx := context.Background()
	for _, tc := range cells {
		b := GenerateRHS(tc.a1, 5)
		p, err := Prepare(tc.a1, tc.opt)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", tc.name, err)
		}
		for _, a := range []*Matrix{tc.a2, tc.a3} {
			for _, arch := range []string{"skylake", "a64fx"} {
				if _, err := p.Solve(ctx, b, SolveOptions{Arch: arch}); err != nil {
					t.Fatalf("%s: donor solve: %v", tc.name, err)
				}
			}
			if p, err = p.Refactor(a); err != nil {
				t.Fatalf("%s: Refactor: %v", tc.name, err)
			}
			fresh, err := Prepare(a, tc.opt)
			if err != nil {
				t.Fatalf("%s: Prepare: %v", tc.name, err)
			}
			for _, arch := range []string{"a64fx", "skylake"} {
				got, err := p.Solve(ctx, b, SolveOptions{Arch: arch})
				if err != nil {
					t.Fatalf("%s: %s solve: %v", tc.name, arch, err)
				}
				want, err := fresh.Solve(ctx, b, SolveOptions{Arch: arch})
				if err != nil {
					t.Fatalf("%s: %s reference solve: %v", tc.name, arch, err)
				}
				if math.Float64bits(got.ModeledSolveTime) != math.Float64bits(want.ModeledSolveTime) {
					t.Fatalf("%s, %s: refactored system models %v s, a fresh Prepare %v s (replanned %v)",
						tc.name, arch, got.ModeledSolveTime, want.ModeledSolveTime, p.SetupPhases().Replanned)
				}
			}
		}
	}
}

// Options whose first pattern depends on the values keep partition,
// permutation and A's operator and rebuild the rest; the result is still
// what Prepare gives.
func TestRefactorValueShapedPatterns(t *testing.T) {
	a1, a2 := plate(12, 9, 1, 1, 0.05), plate(12, 9, 1, 0.02, 0.05)
	for _, opt := range []Options{
		{Method: FSAIEComm, Ranks: 3, Threshold: 0.1},
		{Method: FSAIE, Ranks: 2, PatternLevel: 2, Filter: 0.05},
		{Method: FSAI, Ranks: 2, PatternLevel: 2, Threshold: 0.05},
	} {
		p1, err := Prepare(a1, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p1.Refactor(a2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Prepare(a2, opt)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("level %d threshold %g", opt.PatternLevel, opt.Threshold)
		equalPrepared(t, name, got, want)
		if ph := got.SetupPhases(); ph.Partition != 0 || ph.Extend == 0 {
			t.Errorf("%s: phases %+v, want no partition and a pattern worked out again", name, ph)
		}
	}
}

// A Refactor only reads its donor: solves on the donor run alongside it,
// under the race detector, and neither notices the other.
func TestRefactorConcurrentWithSolve(t *testing.T) {
	a1, a2 := plate(14, 12, 1, 1, 0.05), plate(14, 12, 1, 0.3, 0.05)
	opt := Options{Method: FSAIEComm, Ranks: 3, Filter: 0.05}
	donor, err := Prepare(a1, opt)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := Prepare(a2, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := GenerateRHS(a1, 2)
	ref, err := donor.Solve(ctx, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got, err := donor.Refactor(a2)
			if err != nil {
				t.Error(err)
				return
			}
			equalPrepared(t, "concurrent refactor", got, want2)
		}()
		go func(i int) {
			defer wg.Done()
			so := SolveOptions{}
			if i%2 == 1 {
				so.CGVariant = CGFused // a second variant on the donor's structure
			}
			got, err := donor.Solve(ctx, b, so)
			if err != nil {
				t.Error(err)
				return
			}
			if so.CGVariant == CGClassic && hashX(got.X) != hashX(ref.X) {
				t.Error("a solve on the donor changed while it was being refactored from")
			}
		}(i)
	}
	wg.Wait()
}

// What Refactor refuses, and what a refusal leaves behind: a typed error, a
// donor that solves to the same bits, and — once the donor is closed and
// gone — children that never needed it.
func TestRefactorFaults(t *testing.T) {
	a := plate(10, 10, 1, 1, 0.05)
	donor, err := Prepare(a, Options{Method: FSAIEComm, Ranks: 2, Filter: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := GenerateRHS(a, 1)
	ref, err := donor.Solve(ctx, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	nan := a.Clone()
	nan.Val[7] = math.NaN()
	indefinite := a.Clone()
	for i := 0; i < indefinite.Rows; i++ {
		cols, vals := indefinite.Row(i)
		for k, j := range cols {
			if j == i {
				vals[k] = -vals[k]
			}
		}
	}
	lopsided := a.Clone()
	lopsided.Val[1] *= 2 // (0,1) no longer equals (1,0)
	short := a.Clone()
	short.Val = short.Val[:len(short.Val)-1]
	for _, tc := range []struct {
		name string
		a    *Matrix
		want error
	}{
		{"another pattern", GeneratePoisson3D(5, 5, 4), ErrPatternMismatch},
		{"another shape", plate(10, 9, 1, 1, 0.05), ErrPatternMismatch},
		{"a NaN", nan, ErrInvalidOptions},
		{"asymmetric values", lopsided, ErrNotSPD},
		{"an indefinite matrix", indefinite, ErrNotSPD},
		{"a value short", short, nil},
	} {
		got, err := donor.Refactor(tc.a)
		if err == nil || got != nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("Refactor with %s: system %v, error %v, want one wrapping %v", tc.name, got != nil, err, tc.want)
		}
		again, err := donor.Solve(ctx, b, SolveOptions{})
		if err != nil {
			t.Fatalf("donor solve after Refactor with %s: %v", tc.name, err)
		}
		equalSolve(t, "donor after Refactor with "+tc.name, again, ref)
	}
	// Prepare reports an indefinite matrix the same way.
	if _, err := Prepare(indefinite, Options{Method: FSAIEComm, Ranks: 2}); !errors.Is(err, ErrNotSPD) {
		t.Errorf("Prepare of an indefinite matrix: %v, want one wrapping ErrNotSPD", err)
	}

	a2 := plate(10, 10, 1, 0.5, 0.05)
	child, err := donor.Refactor(a2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Prepare(a2, donor.Options())
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Solve(ctx, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if child.SizeBytes() < want.SizeBytes() {
		t.Errorf("the child charges %d bytes, less than the %d of a system that shares nothing", child.SizeBytes(), want.SizeBytes())
	}
	donor.Close()
	donor = nil
	got, err := child.Solve(ctx, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	equalSolve(t, "child of a closed donor", got, wantRes)
	grandchild, err := child.Refactor(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err = grandchild.Solve(ctx, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	equalSolve(t, "grandchild, back at the first values", got, ref)
}
