package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fsaicomm"
)

// cgFlags is the zero nonsymmetric-axis bundle: solver "" parses to the CG
// default, so existing CG-path tests pass it unchanged.
var cgFlags = spaiFlags{}

func writeTestMatrix(t *testing.T) string {
	t.Helper()
	a := fsaicomm.GeneratePoisson2D(8, 8)
	path := filepath.Join(t.TempDir(), "a.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := fsaicomm.WriteMatrixMarket(f, a); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSolvesAndWritesSolution(t *testing.T) {
	mtx := writeTestMatrix(t)
	out := filepath.Join(t.TempDir(), "x.txt")
	if err := run(mtx, "", "fsaie-comm", 0.01, true, 64, 2, 2, "classic", 1e-8, 0, out, "", "", cgFlags); err != nil {
		t.Fatal(err)
	}
	x, err := readVector(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 64 {
		t.Fatalf("solution length %d", len(x))
	}
}

func TestRunCommHidingCGMatchesClassic(t *testing.T) {
	mtx := writeTestMatrix(t)
	dir := t.TempDir()
	outs := map[string]string{}
	for _, cg := range []string{"classic", "fused", "pipelined"} {
		out := filepath.Join(dir, "x-"+cg+".txt")
		if err := run(mtx, "", "fsaie-comm", 0.01, false, 64, 4, 0, cg, 1e-8, 0, out, "", "", cgFlags); err != nil {
			t.Fatalf("-cg %s: %v", cg, err)
		}
		outs[cg] = out
	}
	xc, err := readVector(outs["classic"])
	if err != nil {
		t.Fatal(err)
	}
	for _, cg := range []string{"fused", "pipelined"} {
		xf, err := readVector(outs[cg])
		if err != nil {
			t.Fatal(err)
		}
		for i := range xc {
			if d := xc[i] - xf[i]; d > 1e-6 || d < -1e-6 {
				t.Fatalf("x[%d]: classic %v vs %s %v", i, xc[i], cg, xf[i])
			}
		}
	}
}

func TestRunWritesTraceArtifact(t *testing.T) {
	mtx := writeTestMatrix(t)
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := run(mtx, "", "fsai", 0, false, 64, 4, 0, "pipelined", 1e-8, 0, "", trace, "", cgFlags); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var art traceArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("trace artifact not valid JSON: %v", err)
	}
	if art.Trace == nil || len(art.Trace.Iters) != art.Iterations {
		t.Fatalf("trace has %v records, want %d iterations", art.Trace, art.Iterations)
	}
	if len(art.Phases.Windows) == 0 || art.Phases.TotalSec <= 0 {
		t.Fatalf("phases section missing: %+v", art.Phases)
	}
}

func TestRunSerialWithRHS(t *testing.T) {
	mtx := writeTestMatrix(t)
	rhs := filepath.Join(t.TempDir(), "b.txt")
	f, _ := os.Create(rhs)
	for i := 0; i < 64; i++ {
		f.WriteString("1.0\n")
	}
	f.Close()
	if err := run(mtx, rhs, "fsai", 0, false, 64, 1, 0, "classic", 1e-8, 0, "", "", "", cgFlags); err != nil {
		t.Fatal(err)
	}
}

func writeNonsymMatrix(t *testing.T) string {
	t.Helper()
	a := fsaicomm.GenerateConvectionDiffusion2D(8, 8, 5)
	path := filepath.Join(t.TempDir(), "cd.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := fsaicomm.WriteMatrixMarket(f, a); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGMRESSolvesNonsymmetric(t *testing.T) {
	mtx := writeNonsymMatrix(t)
	dir := t.TempDir()
	gm := spaiFlags{solver: "gmres", restart: 20, steps: 2}
	serial := filepath.Join(dir, "x-serial.txt")
	if err := run(mtx, "", "spai", 0, false, 64, 1, 0, "classic", 1e-8, 0, serial, "", "", gm); err != nil {
		t.Fatalf("serial spai+gmres: %v", err)
	}
	dist := filepath.Join(dir, "x-dist.txt")
	if err := run(mtx, "", "spai", 0, false, 64, 4, 0, "classic", 1e-8, 0, dist, "", "", gm); err != nil {
		t.Fatalf("distributed spai+gmres: %v", err)
	}
	xs, err := readVector(serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 64 {
		t.Fatalf("solution length %d", len(xs))
	}
	if _, err := readVector(dist); err != nil {
		t.Fatal(err)
	}
	// A CG solve on the same matrix must be rejected, not silently wrong.
	if err := run(mtx, "", "fsai", 0, false, 64, 1, 0, "classic", 1e-8, 0, "", "", "", cgFlags); err == nil {
		t.Fatal("CG accepted a nonsymmetric matrix")
	}
}

func TestRunErrors(t *testing.T) {
	mtx := writeTestMatrix(t)
	if err := run("", "", "fsai", 0, false, 64, 1, 0, "classic", 0, 0, "", "", "", cgFlags); err == nil {
		t.Fatal("missing matrix accepted")
	}
	if err := run(mtx, "", "bogus", 0, false, 64, 1, 0, "classic", 0, 0, "", "", "", cgFlags); err == nil {
		t.Fatal("unknown method accepted")
	}
	if err := run(mtx, "", "fsai", 0, false, 64, 1, 0, "bogus", 0, 0, "", "", "", cgFlags); err == nil {
		t.Fatal("unknown CG variant accepted")
	}
	short := filepath.Join(t.TempDir(), "short.txt")
	os.WriteFile(short, []byte("1.0\n"), 0o644)
	if err := run(mtx, short, "fsai", 0, false, 64, 1, 0, "classic", 0, 0, "", "", "", cgFlags); err == nil {
		t.Fatal("short rhs accepted")
	}
}
