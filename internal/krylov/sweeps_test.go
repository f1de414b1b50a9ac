package krylov

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// TestFusedSweepsKeepTheLoopsBits pins a 1-wide classic solve, the
// FP32-refined solve whose inner solves are that loop over float32
// operators, and GMRES, all on three goroutine ranks with an
// FSAI split preconditioner over the entries and over column runs, to what
// the loops gave at commit 07ee7d3, before the dot products rode the sweeps:
// a SHA-256 of x's bits, the iterations, every rank's Stats.Flops and the
// world's meter snapshot, set-up included. The fused kernels count the flops
// the separate ones did, so Flops is unchanged too.
func TestFusedSweepsKeepTheLoopsBits(t *testing.T) {
	a := matgen.Poisson3D(11, 10, 9)
	lower, err := fsai.Build(a, fsai.LowerPattern(a))
	if err != nil {
		t.Fatal(err)
	}
	// A band of 8 columns a row: one run each, so G and Gᵀ keep a run index
	// and their products take the run kernel, where the lower pattern's take
	// the entry walk.
	band := make([][]int, a.Rows)
	for i := range band {
		for j := max(0, i-7); j <= i; j++ {
			band[i] = append(band[i], j)
		}
	}
	banded, err := fsai.Build(a, sparse.PatternFromRows(a.Rows, a.Rows, band))
	if err != nil {
		t.Fatal(err)
	}
	b := matgen.RandomRHS(a.Rows, 23, a.MaxNorm())
	const nranks = 3
	l := distmat.NewUniformLayout(a.Rows, nranks)
	for _, tc := range []struct {
		name string
		g    *sparse.CSR
		want string
	}{
		{"classic", lower,
			"x 4686dc2ddf8a284f iterations 26 flops [335816 347256 335816] meter {P2PBytes:190080 P2PMessages:216 CollectiveCalls:249 CollectiveBytes:2136}"},
		{"fp32-refined", lower,
			"x 375d5f5adf3a377e iterations 26 flops [342274 353934 342274] meter {P2PBytes:105600 P2PMessages:224 CollectiveCalls:261 CollectiveBytes:2280}"},
		{"gmres", lower,
			"x d4266bdd69c4da16 iterations 25 flops [700278 711498 700278] meter {P2PBytes:186560 P2PMessages:212 CollectiveCalls:1065 CollectiveBytes:8664}"},
		{"classic", banded,
			"x f0c58b09349ed5c3 iterations 40 flops [744480 755520 744480] meter {P2PBytes:153504 P2PMessages:328 CollectiveCalls:375 CollectiveBytes:3144}"},
		{"fp32-refined", banded,
			"x e30119469563777c iterations 41 flops [769550 781086 769550] meter {P2PBytes:87536 P2PMessages:344 CollectiveCalls:396 CollectiveBytes:3360}"},
		{"gmres", banded,
			"x 0399df016142fdfb iterations 40 flops [1366936 1378308 1366936] meter {P2PBytes:157472 P2PMessages:340 CollectiveCalls:1698 CollectiveBytes:13728}"},
	} {
		g, gt := tc.g, tc.g.Transpose()
		x := make([]float64, a.Rows)
		var iters int
		var runs bool
		flops := make([]int64, nranks)
		w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := func(m *sparse.CSR, f32 bool) *distmat.Op {
				o := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(m, lo, hi))
				o.SetF32(f32)
				return o
			}
			aOp := op(a, false)
			f32 := tc.name == "fp32-refined"
			m := NewDistSplit(op(g, f32), op(gt, f32))
			var fc vecops.FlopCounter
			var st Stats
			var err error
			xl := x[lo:hi]
			switch tc.name {
			case "classic":
				st, err = DistCG(c, aOp, b[lo:hi], xl, m, Options{}, &fc)
			case "fp32-refined":
				st, err = DistCGRefined(c, aOp, op(a, true), b[lo:hi], xl, m, Options{}, &fc)
			case "gmres":
				st, err = DistGMRES(c, aOp, b[lo:hi], xl, m, Options{}, &fc)
			}
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				iters = st.Iterations
				runs = m.G.LZ.Runs() != nil && m.GT.LZ.Runs() != nil
			}
			flops[c.Rank()] = st.Flops
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		for _, v := range x {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		got := fmt.Sprintf("x %s iterations %d flops %v meter %+v", hex.EncodeToString(h.Sum(nil))[:16], iters, flops, w.Meter().Snapshot())
		if runs != (tc.g == banded) {
			t.Fatalf("%s: G has a run index: %v", tc.name, runs)
		}
		if got != tc.want {
			t.Errorf("%s, G over runs %v:\n got  %s\n want %s", tc.name, runs, got, tc.want)
		}
	}
}
