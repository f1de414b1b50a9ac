package serve

import (
	"reflect"
	"testing"

	"fsaicomm"
)

// The two cache keys cover every option, walked by reflection so that a
// field added to Options or SolveOptions without a place in a key fails
// here. Each per-solve option set to a legal non-zero value separates
// batches. Each set-up option separates prepared systems, the SPAI knobs
// only under SPAI, while what leaves the factors alone — Workers, Transport
// and every per-solve option — leaves the prepared-cache key alone: one
// cached system serves both transports and any node grouping.
func TestCacheKeysCoverEveryOption(t *testing.T) {
	perSolve := map[string]any{
		"Tol": 1e-6, "MaxIter": 50, "CGVariant": fsaicomm.CGFused, "Restart": 20, "Arch": "a64fx",
		"Trace": true, "ResidualReplaceEvery": 10, "Transport": "tcp", "Nodes": 2, "RanksPerNode": 2,
		"NoNodeAggregation": true,
	}
	a := fsaicomm.GeneratePoisson2D(30, 30)
	auto := fsaicomm.AutoRanks(a, 0)
	setup := map[string]any{
		"Method": fsaicomm.FSAIE, "Filter": 0.05, "Strategy": fsaicomm.DynamicFilter, "LineBytes": 256,
		"PatternLevel": 2, "Threshold": 0.1, "Ranks": auto + 1, "Partitioner": "block",
		"PartitionSeed": int64(7), "Precision": fsaicomm.FP32,
	}
	spai := map[string]any{"SPAISteps": 2, "SPAIAdd": 3, "SPAIEpsilon": 0.2}
	inert := map[string]any{"Workers": 4}
	for name, v := range perSolve {
		inert[name] = v
	}
	with := func(o any, name string, v any) {
		reflect.ValueOf(o).Elem().FieldByName(name).Set(reflect.ValueOf(v))
	}

	sot := reflect.TypeOf(fsaicomm.SolveOptions{})
	base := batchKey("skey", fsaicomm.SolveOptions{})
	for i := 0; i < sot.NumField(); i++ {
		name := sot.Field(i).Name
		v, ok := perSolve[name]
		if !ok {
			t.Fatalf("SolveOptions.%s has no legal non-zero value in this test", name)
		}
		var so fsaicomm.SolveOptions
		with(&so, name, v)
		if err := so.Validate(); err != nil {
			t.Fatalf("SolveOptions.%s = %v: %v", name, v, err)
		}
		if batchKey("skey", so) == base {
			t.Errorf("SolveOptions.%s = %v does not change batchKey", name, v)
		}
	}

	key := func(o fsaicomm.Options) string {
		if err := o.Validate(); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		return setupKey("fp", "pattern", o, fsaicomm.AutoRanks(a, o.Ranks))
	}
	fsaiBase := fsaicomm.Options{Method: fsaicomm.FSAIEComm}
	spaiBase := fsaicomm.Options{Method: fsaicomm.SPAI, Solver: fsaicomm.SolverGMRES}
	ot := reflect.TypeOf(fsaicomm.Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		if name == "Solver" {
			// The solver is implied by the method (SPAI ⇔ GMRES): neither
			// changes alone, so Method's slot in the key covers it.
			for _, o := range []fsaicomm.Options{fsaiBase, spaiBase} {
				o.Solver = fsaicomm.SolverGMRES + fsaicomm.SolverCG - o.Solver
				if o.Validate() == nil {
					t.Fatalf("Solver %v changed alone from method %v passes Validate", o.Solver, o.Method)
				}
			}
			continue
		}
		type check struct {
			base    fsaicomm.Options
			v       any
			changes bool
		}
		var checks []check
		if v, ok := setup[name]; ok {
			checks = append(checks, check{fsaiBase, v, true})
		} else if v, ok := spai[name]; ok {
			checks = append(checks, check{spaiBase, v, true}, check{fsaiBase, v, false})
		} else if v, ok := inert[name]; ok {
			checks = append(checks, check{fsaiBase, v, false})
		} else {
			t.Fatalf("Options.%s is in no group of this test: is it a set-up or a per-solve option?", name)
		}
		for _, c := range checks {
			o := c.base
			with(&o, name, c.v)
			if got := key(o) != key(c.base); got != c.changes {
				t.Errorf("Options.%s = %v under method %v: setupKey changes %v, want %v", name, c.v, c.base.Method, got, c.changes)
			}
		}
	}
}
