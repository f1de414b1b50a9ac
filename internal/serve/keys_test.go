package serve

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"fsaicomm"
)

// The two cache keys are printed from the option groups; this test walks
// both types by reflection, so a field added to either is held to its group
// with no edit here beyond a legal value. Each per-solve field (a field of
// SolveOptions) separates batches. Each set-up field separates prepared
// systems — the SPAI knobs only under SPAI —, while Workers (the runtime
// group) and every per-solve field leave the prepared-cache key alone: one
// cached system serves both transports.
func TestCacheKeysCoverEveryOption(t *testing.T) {
	a := fsaicomm.GeneratePoisson2D(30, 30)
	legal := map[string]any{
		"Method": fsaicomm.FSAIE, "Filter": 0.05, "Strategy": fsaicomm.DynamicFilter, "LineBytes": 256,
		"PatternLevel": 2, "Threshold": 0.1, "Ranks": fsaicomm.AutoRanks(a, 0) + 1, "Partitioner": "block",
		"PartitionSeed": int64(7), "Precision": fsaicomm.FP32, "SPAISteps": 2, "SPAIAdd": 3, "SPAIEpsilon": 0.2,
		"Workers": 4, "Tol": 1e-6, "MaxIter": 50, "CGVariant": fsaicomm.CGFused, "Restart": 20, "Arch": "a64fx",
		"Trace": true, "Transport": "tcp",
	}
	with := func(o any, name string) {
		v, ok := legal[name]
		if !ok {
			t.Fatalf("%s has no legal non-zero value in this test", name)
		}
		reflect.ValueOf(o).Elem().FieldByName(name).Set(reflect.ValueOf(v))
	}

	sot := reflect.TypeOf(fsaicomm.SolveOptions{})
	base := batchKey("skey", fsaicomm.SolveOptions{})
	for i := 0; i < sot.NumField(); i++ {
		var so fsaicomm.SolveOptions
		with(&so, sot.Field(i).Name)
		if err := so.Validate(); err != nil {
			t.Fatalf("SolveOptions.%s: %v", sot.Field(i).Name, err)
		}
		if batchKey("skey", so) == base {
			t.Errorf("SolveOptions.%s does not change batchKey", sot.Field(i).Name)
		}
	}

	key := func(o fsaicomm.Options) string {
		setup, err := o.Canonical(a)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		return setupKey("fp", "pattern", setup)
	}
	fsaiBase := fsaicomm.Options{Method: fsaicomm.FSAIEComm}
	spaiBase := fsaicomm.Options{Method: fsaicomm.SPAI, Solver: fsaicomm.SolverGMRES}
	ot := reflect.TypeOf(fsaicomm.Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		_, perSolve := sot.FieldByName(name)
		switch {
		case name == "Solver":
			// The solver is implied by the method (SPAI ⇔ GMRES): neither
			// changes alone, so Method's slot in the key covers it.
			for _, o := range []fsaicomm.Options{fsaiBase, spaiBase} {
				o.Solver = fsaicomm.SolverGMRES + fsaicomm.SolverCG - o.Solver
				if o.Validate() == nil {
					t.Fatalf("Solver %v changed alone from method %v passes Validate", o.Solver, o.Method)
				}
			}
		case perSolve || name == "Workers":
			o := fsaiBase
			with(&o, name)
			if key(o) != key(fsaiBase) {
				t.Errorf("Options.%s changes setupKey", name)
			}
		case strings.HasPrefix(name, "SPAI"):
			o, p := spaiBase, fsaiBase
			with(&o, name)
			with(&p, name)
			if key(o) == key(spaiBase) || key(p) != key(fsaiBase) {
				t.Errorf("Options.%s: setupKey changes under SPAI %v, under FSAIE-Comm %v; want true, false",
					name, key(o) != key(spaiBase), key(p) != key(fsaiBase))
			}
		default:
			o := fsaiBase
			with(&o, name)
			if key(o) == key(fsaiBase) {
				t.Errorf("Options.%s does not change setupKey", name)
			}
		}
	}

	// A cached system's answer does not depend on the per-solve values of the
	// request that set it up: after one with every per-solve field set, the
	// same system answers a request with none as a fresh server does.
	_, ts := testServer(t, Config{})
	_, fresh := testServer(t, Config{})
	for _, gen := range []string{"Dubcova2-sim", "convdiff-sim"} {
		mr := uploadGen(t, ts.URL, gen)
		uploadGen(t, fresh.URL, gen)
		plain := solveRequest{Matrix: mr.Matrix, Ranks: 2}
		first := solveRequest{Matrix: mr.Matrix, Ranks: 2, Tol: 1e-4, MaxIter: 9, CG: "fused", Restart: 5,
			Arch: "a64fx", Trace: true}
		if gen == "convdiff-sim" {
			plain.Solver, first.Solver, first.CG = "gmres", "gmres", ""
		}
		for _, q := range []solveRequest{first, plain} {
			if code, _, raw := solveOn(t, ts.URL, q); code != http.StatusOK {
				t.Fatalf("%s %+v: %d %s", gen, q, code, raw)
			}
		}
		_, got, _ := solveOn(t, ts.URL, plain)
		_, want, _ := solveOn(t, fresh.URL, plain)
		if !got.CacheHit || got.Iterations != want.Iterations || !sameX(got.X, want.X) {
			t.Errorf("%s: a cached system answers %d iterations (cache hit %v); a fresh one %d, or other bits",
				gen, got.Iterations, got.CacheHit, want.Iterations)
		}
	}
}
