package fsaicomm

import (
	"fmt"
	"math"
	"testing"
)

// TestModeledTimeBitPins pins the cost model's output to the bit: the
// modeled solve time and every field of the per-window breakdown, on one
// configuration per way the model's inputs are assembled — the three CG
// loops, another architecture at an odd rank count, a node-aware plan under
// a blocking and an overlapping loop, a narrowed system, and SPAI-GMRES. Any
// change to a constant, an integer expression or the order of a floating
// sum of the model shows here.
func TestModeledTimeBitPins(t *testing.T) {
	spd := GeneratePoisson3D(14, 14, 14)
	nonsym := GenerateConvectionDiffusion2D(40, 40, 50)
	cases := []struct {
		name string
		a    *Matrix
		opt  Options
		want string
	}{
		{"classic", spd, Options{Method: FSAIEComm, Ranks: 2, CGVariant: CGClassic},
			"iters 28 total 3f53e1c0bcd894d5 phases 3f53e1c0bcd894d5 compute 3f4c7444afe4320e halo 3f18634017a569ae 0000000000000000 0000000000000000 3f18634017a569ae reduction 3f3085a98db094cc 0000000000000000 0000000000000000 3f3085a98db094cc"},
		{"fused", spd, Options{Method: FSAIEComm, Ranks: 2, CGVariant: CGFused},
			"iters 28 total 3f51211c1c7abbdc phases 3f51211c1c7abbdc compute 3f4c7444afe4320e halo 3f18634017a569ae 0000000000000000 0000000000000000 3f18634017a569ae reduction 3f160c5c30e4c39f 0000000000000000 0000000000000000 3f160c5c30e4c39f"},
		{"pipelined", spd, Options{Method: FSAIEComm, Ranks: 2, CGVariant: CGPipelined},
			"iters 28 total 3f4cece41028a0c2 phases 3f4cece41028a0c2 compute 3f4c7444afe4320e halo 3f18634017a569ae 3f149e451581f415 3f149e451581f415 3eee27d8111bacc2 reduction 3f160c5c30e4c39f 3f4406081f0bc886 3f160c5c30e4c39f 0000000000000000"},
		{"a64fx-3", spd, Options{Method: FSAIEComm, Ranks: 3, Arch: "a64fx"},
			"iters 28 total 3f3c5c55d6658b10 phases 3f3c5c55d6658b10 compute 3f2364e23e9bfb39 halo 3f1e99ad3f85a853 0000000000000000 0000000000000000 3f1e99ad3f85a853 reduction 3f2606f2ce6c46be 0000000000000000 0000000000000000 3f2606f2ce6c46be"},
		{"nodes2x2-classic", spd, Options{Method: FSAIEComm, Ranks: 4, Nodes: 2, CGVariant: CGClassic},
			"iters 28 total 3f4d756b6968faf0 phases 3f4d756b6968faf0 compute 3f39b498d8bc5fbb halo 3f20db7f4b196de2 0000000000000000 0000000000000000 3f20db7f4b196de2 reduction 3f38c87e5488df32 0000000000000000 0000000000000000 3f38c87e5488df32"},
		{"nodes2x2-pipelined", spd, Options{Method: FSAIEComm, Ranks: 4, Nodes: 2, CGVariant: CGPipelined},
			"iters 28 total 3f3fe3ca9d212862 phases 3f3fe3ca9d212862 compute 3f39b498d8bc5fbb halo 3f20db7f4b196de2 3f01f46f093f7245 3f01f46f093f7246 3f18bcc7119322a1 reduction 3f20894524ab92b7 3f3190d098147b90 3f20894524ab92b7 0000000000000000"},
		{"fp32", spd, Options{Method: FSAIEComm, Ranks: 2, Precision: FP32},
			"iters 29 total 3f548db89c8a80f5 phases 3f548db89c8a80f5 compute 3f4d786bb62c586a halo 3f18a5491569bef6 0000000000000000 0000000000000000 3f18a5491569bef6 reduction 3f311cb8c076e341 0000000000000000 0000000000000000 3f311cb8c076e341"},
		{"spai-gmres", nonsym, Options{Method: SPAI, Solver: SolverGMRES, SPAISteps: 2, Ranks: 2},
			"iters 59 total 3f6f34aca5500940 phases 3f6f34aca5500940 compute 3f443342931ba7db halo 3f27d7d8b196ed40 0000000000000000 0000000000000000 3f27d7d8b196ed40 reduction 3f68aa5e756fb074 0000000000000000 0000000000000000 3f68aa5e756fb074"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := SolveDistributed(c.a, GenerateRHS(c.a, 1), c.opt)
			if err != nil {
				t.Fatal(err)
			}
			bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
			ph := res.Phases
			got := fmt.Sprintf("iters %d total %s phases %s compute %s", res.Iterations,
				bits(res.ModeledSolveTime), bits(ph.TotalSec), bits(ph.ComputeSec))
			for _, w := range ph.Windows {
				got += fmt.Sprintf(" %s %s %s %s %s", w.Name, bits(w.RawSec), bits(w.HideAvail), bits(w.HiddenSec), bits(w.ExposedSec))
			}
			if got != c.want {
				t.Errorf("modeled bits\n got %q\nwant %q", got, c.want)
			}
		})
	}
}
