package main

import (
	"io"
	"math"
	"os"
	"testing"

	"fsaicomm/internal/mprun"
)

func TestMain(m *testing.M) {
	// The traced run's in-process tcp solves re-execute this test binary as
	// rank workers.
	mprun.MaybeWorker()
	os.Exit(m.Run())
}

// quickConfig is the -quick mode: tiny matrices, sub-second windows, the
// same code path as a full run.
func quickConfig(t *testing.T, name, bin string, trace bool) config {
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("BENCHMARK.json names workload %q, which the harness does not define", name)
	}
	log := io.Discard
	if testing.Verbose() {
		log = os.Stdout
	}
	return config{w: w, seed: 1, seconds: 0.3, trace: trace, quick: true, bin: bin, outDir: t.TempDir(), log: log}
}

// TestQuick runs every workload of BENCHMARK.json both ways and checks that
// what comes out is what BENCHMARK.json promises: the same names, legal
// names, units, and no failed operation. It asserts no timing.
func TestQuick(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	bin, err := buildServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := runWorkload(quickConfig(t, wl.Name, bin, trace), spec)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", wl.Name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongAnswerIsAFailure perturbs every x the server returns by far less
// than any timing would notice and expects every operation to be counted as
// failed.
func TestWrongAnswerIsAFailure(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(t, "warm-sim", bin, false)
	cfg.corrupt = func(x []float64) { x[len(x)/2] += 1e-4 }
	// The first unit of work already fails, so the run stops at set-up.
	if res, err := runWorkload(cfg, spec); err == nil {
		t.Fatalf("perturbed answers passed: %+v", res)
	}
	// Past set-up, each perturbed answer is one failed operation.
	cfg.corrupt = nil
	r := newRunner(cfg, newTracer())
	if _, err := r.setup(); err != nil {
		t.Fatal(err)
	}
	defer r.srv.stop()
	r.cfg.corrupt = func(x []float64) { x[len(x)/2] += 1e-4 }
	before := r.attempted
	r.unit()
	r.unit()
	if n := r.attempted - before; n != 2 || r.failed != n {
		t.Errorf("attempted %d, failed %d: every perturbed answer must fail", n, r.failed)
	}
}

// TestQuartiles pins the A/A tool's quartile rule to Python's
// statistics.quantiles(values, n=4), the one the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5}); math.Abs(s-1) > 1e-12 { // (4.5-1.5)/3
		t.Errorf("spread(1..5) = %v, want 1", s)
	}
}
