package fsaicomm

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestIllegalCellsRefusedEverywhere runs every illegal combination the cell
// check names, a non-finite right-hand side and negative or NaN per-solve
// values against every library entry point that can express them: each
// must come back as an ErrInvalidOptions (batch schedules: ErrBatchVariant)
// error with no result, before any work.
func TestIllegalCellsRefusedEverywhere(t *testing.T) {
	a := GeneratePoisson2D(8, 8) // AutoRanks: 2
	good := GenerateRHS(a, 1)
	withRHS := func(v float64) []float64 {
		b := append([]float64(nil), good...)
		b[3] = v
		return b
	}
	// The entry points, by what they take: one-process set-ups, one-off
	// distributed set-ups, batches, and solves on a prepared system (whose
	// set-up group is fixed, so only per-solve cells reach them).
	const (
		one = 1 << iota
		dist
		batch
		prep
		prepBatch
		all = one | dist | batch | prep | prepBatch
	)
	spai := Options{Method: SPAI, Solver: SolverGMRES, Ranks: 2}
	two := Options{Ranks: 2}
	rows := []struct {
		name  string
		setup Options // the set-up group, and the prepared system's
		so    SolveOptions
		b     []float64
		want  error
		on    int
	}{
		{"SPAI without GMRES", Options{Method: SPAI, Ranks: 2}, SolveOptions{}, good, ErrInvalidOptions, one | dist | batch},
		{"GMRES without SPAI", Options{Solver: SolverGMRES, Ranks: 2}, SolveOptions{}, good, ErrInvalidOptions, one | dist | batch},
		{"GMRES in FP32", Options{Method: SPAI, Solver: SolverGMRES, Precision: FP32, Ranks: 2}, SolveOptions{}, good, ErrInvalidOptions, one | dist | batch},
		{"GMRES fused", spai, SolveOptions{CGVariant: CGFused}, good, ErrInvalidOptions, all},
		{"GMRES pipelined", spai, SolveOptions{CGVariant: CGPipelined}, good, ErrInvalidOptions, all},
		{"GMRES batch", spai, SolveOptions{}, good, ErrInvalidOptions, batch | prepBatch},
		{"batch pipelined", two, SolveOptions{CGVariant: CGPipelined}, good, ErrBatchVariant, batch | prepBatch},
		{"LineBytes 12", Options{LineBytes: 12, Ranks: 2}, SolveOptions{}, good, ErrInvalidOptions, one | dist | batch},
		{"Filter NaN", Options{Filter: math.NaN(), Ranks: 2}, SolveOptions{}, good, ErrInvalidOptions, one | dist | batch},
		{"rhs[3] = NaN", two, SolveOptions{}, withRHS(math.NaN()), ErrInvalidOptions, all},
		{"rhs[3] = +Inf", two, SolveOptions{}, withRHS(math.Inf(1)), ErrInvalidOptions, all},
		{"Tol NaN", two, SolveOptions{Tol: math.NaN(), MaxIter: 50}, good, ErrInvalidOptions, all},
		{"Tol -1", two, SolveOptions{Tol: -1}, good, ErrInvalidOptions, all},
		{"MaxIter -5", two, SolveOptions{MaxIter: -5}, good, ErrInvalidOptions, all},
		{"Restart -3", two, SolveOptions{Restart: -3}, good, ErrInvalidOptions, all},
	}
	ctx := context.Background()
	m, err := BuildPreconditioner(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var p *Prepared // the row's prepared system
	entries := []struct {
		name string
		on   int
		rhs  bool // the entry takes a right-hand side
		run  func(opt Options, so SolveOptions, b []float64) (any, error)
	}{
		{"Solve", one, true, func(opt Options, _ SolveOptions, b []float64) (any, error) {
			return Solve(a, b, opt)
		}},
		{"SolveContext", one, true, func(opt Options, _ SolveOptions, b []float64) (any, error) {
			return SolveContext(ctx, a, b, opt)
		}},
		{"BuildPreconditioner", one, false, func(opt Options, _ SolveOptions, _ []float64) (any, error) {
			return BuildPreconditioner(a, opt)
		}},
		{"Preconditioner.SolveWith", one, true, func(opt Options, _ SolveOptions, b []float64) (any, error) {
			return m.SolveWith(b, opt)
		}},
		{"SolveDistributed", dist, true, func(opt Options, _ SolveOptions, b []float64) (any, error) {
			return SolveDistributed(a, b, opt)
		}},
		{"SolveDistributedContext", dist, true, func(opt Options, _ SolveOptions, b []float64) (any, error) {
			return SolveDistributedContext(ctx, a, b, opt)
		}},
		{"Prepare", dist, false, func(opt Options, _ SolveOptions, _ []float64) (any, error) {
			return Prepare(a, opt)
		}},
		{"SolveBatch", batch, true, func(opt Options, _ SolveOptions, b []float64) (any, error) {
			return SolveBatch(a, [][]float64{good, b}, opt)
		}},
		{"SolveBatchContext", batch, true, func(opt Options, _ SolveOptions, b []float64) (any, error) {
			return SolveBatchContext(ctx, a, [][]float64{good, b}, opt)
		}},
		{"Prepared.Solve", prep, true, func(_ Options, so SolveOptions, b []float64) (any, error) {
			return p.Solve(ctx, b, so)
		}},
		{"Prepared.SolveBatch", prepBatch, true, func(_ Options, so SolveOptions, b []float64) (any, error) {
			return p.SolveBatch(ctx, [][]float64{good, b}, so)
		}},
	}
	for _, row := range rows {
		p = nil
		if row.on&(prep|prepBatch) != 0 {
			if p, err = Prepare(a, row.setup); err != nil {
				t.Fatalf("%s: preparing the legal set-up group: %v", row.name, err)
			}
		}
		opt := withSolveOptions(row.setup, row.so)
		for _, e := range entries {
			if row.on&e.on == 0 || !e.rhs && !reflect.DeepEqual(row.b, good) {
				continue
			}
			res, err := e.run(opt, row.so, row.b)
			if !errors.Is(err, row.want) {
				t.Errorf("%s with %s: error %v, want one wrapping %v", e.name, row.name, err, row.want)
			}
			if !reflect.ValueOf(res).IsNil() {
				t.Errorf("%s with %s: a result came back with the error", e.name, row.name)
			}
		}
		if p != nil {
			p.Close()
		}
	}
}

// withSolveOptions returns setup with its per-solve group replaced by so's
// fields, copied by name.
func withSolveOptions(setup Options, so SolveOptions) Options {
	dst, src := reflect.ValueOf(&setup).Elem(), reflect.ValueOf(so)
	for i := 0; i < src.NumField(); i++ {
		dst.FieldByName(src.Type().Field(i).Name).Set(src.Field(i))
	}
	return setup
}
