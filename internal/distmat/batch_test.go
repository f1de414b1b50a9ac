package distmat

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/vecops"
)

// The batched distributed SpMM is bit-identical per column to the scalar
// distributed SpMV, and its halo update costs exactly the scalar message
// count (one message per neighbour, k× the bytes).
func TestOpMulMatMatchesMulVecMetered(t *testing.T) {
	a := grid2d(9, 8)
	n := a.Rows
	const nranks, k = 3, 4
	l := NewUniformLayout(n, nranks)

	xcols := make([][]float64, k)
	for c := range xcols {
		xcols[c] = make([]float64, n)
		for i := range xcols[c] {
			xcols[c][i] = float64(i%7) - 2.5*float64(c)
		}
	}

	// Scalar pass: k MulVecs, metered.
	want := make([][]float64, k)
	for c := range want {
		want[c] = make([]float64, n)
	}
	w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		c.Barrier()
		if c.Rank() == 0 {
			c.Meter().Reset()
		}
		c.Barrier()
		scratch := NewDistVec(op.LZ)
		for col := 0; col < k; col++ {
			y := make([]float64, hi-lo)
			op.MulVec(c, xcols[col][lo:hi], y, scratch, nil)
			copy(want[col][lo:hi], y)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	solo := w.Meter().Snapshot()

	// Batched pass: one MulMat, metered.
	got := make([]float64, n*k)
	x := make([]float64, n*k)
	for c := range xcols {
		vecops.PackColumn(x, xcols[c], k, c)
	}
	w2, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		c.Barrier()
		if c.Rank() == 0 {
			c.Meter().Reset()
		}
		c.Barrier()
		scratch := NewBatchDistVec(op.LZ, k)
		y := make([]float64, (hi-lo)*k)
		var fc vecops.FlopCounter
		op.MulMat(c, x[lo*k:hi*k], y, k, nil, scratch, &fc)
		if fc.Count() != 2*int64(op.LZ.M.NNZ())*k {
			t.Errorf("rank %d flops = %d, want %d", c.Rank(), fc.Count(), 2*op.LZ.M.NNZ()*k)
		}
		copy(got[lo*k:hi*k], y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := w2.Meter().Snapshot()

	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			if got[i*k+c] != want[c][i] {
				t.Fatalf("col %d row %d: MulMat %v != MulVec %v", c, i, got[i*k+c], want[c][i])
			}
		}
	}
	if solo.P2PMessages == 0 {
		t.Fatal("degenerate partition: no halo traffic metered")
	}
	// The k scalar SpMVs send k messages per neighbour; the batch sends 1.
	if batch.P2PMessages*int64(k) != solo.P2PMessages {
		t.Fatalf("halo messages: batch %d, solo %d, want exactly 1/k", batch.P2PMessages, solo.P2PMessages)
	}
	if batch.P2PBytes != solo.P2PBytes {
		t.Fatalf("halo bytes: batch %d != solo %d (same values, coalesced)", batch.P2PBytes, solo.P2PBytes)
	}
}

// Masked columns are not computed but the halo message schedule is
// unchanged — the mask saves flops, never messages.
func TestOpMulMatMaskKeepsSchedule(t *testing.T) {
	a := grid2d(7, 7)
	n := a.Rows
	const nranks, k = 2, 3
	l := NewUniformLayout(n, nranks)
	x := make([]float64, n*k)
	for i := range x {
		x[i] = float64(i % 5)
	}
	var msgFull, msgMasked int64
	for _, cols := range [][]int{nil, {1}} {
		w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
			c.Barrier()
			if c.Rank() == 0 {
				c.Meter().Reset()
			}
			c.Barrier()
			scratch := NewBatchDistVec(op.LZ, k)
			y := make([]float64, (hi-lo)*k)
			op.MulMat(c, x[lo*k:hi*k], y, k, cols, scratch, nil)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if cols == nil {
			msgFull = w.Meter().Snapshot().P2PMessages
		} else {
			msgMasked = w.Meter().Snapshot().P2PMessages
		}
	}
	if msgFull == 0 || msgFull != msgMasked {
		t.Fatalf("message schedule depends on mask: full %d, masked %d", msgFull, msgMasked)
	}
}

// DotBatchDist reduces all k columns in one collective call.
func TestDotBatchDistOneCollective(t *testing.T) {
	const nranks, k, nl = 3, 5, 10
	w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		x := make([]float64, nl*k)
		for i := range x {
			x[i] = float64(c.Rank()*len(x)+i) / 17
		}
		out := make([]float64, k)
		DotBatchDist(c, x, x, k, nil, out, nil)
		// Cross-check column 2 against the scalar path.
		col := make([]float64, nl)
		vecops.UnpackColumn(col, x, k, 2)
		want := Dot(c, col, col, nil)
		if out[2] != want {
			t.Errorf("rank %d: DotBatchDist col 2 = %v, scalar Dot = %v", c.Rank(), out[2], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One batched call + one scalar cross-check call per reduction point.
	if got := w.Meter().Snapshot().CollectiveCalls; got != 2*nranks {
		t.Fatalf("collective calls = %d, want %d", got, 2*nranks)
	}
}

// MulMatDot is MulMat then DotBatchDist, bit for bit: the same y, the same
// reduced dots (exact zeros in masked columns), the same flops and the same
// metered traffic, at k = 1, 2, 3 under nil and masked columns, in both
// precisions — with w the product's own operand kept in the scratch (the
// classic CG loop's d·q) and with another vector (DistSplit's r·z). The
// meters cover the whole run, set-up included, which both sides share.
func TestMulMatDotMatchesMulMatThenDot(t *testing.T) {
	a := grid2d(9, 8)
	n := a.Rows
	const nranks = 3
	l := NewUniformLayout(n, nranks)
	for _, k := range []int{1, 2, 3} {
		x, other := make([]float64, n*k), make([]float64, n*k)
		for i := range x {
			x[i] = float64(i%7) - 2.5 + 0.125*float64(i%3)
			other[i] = float64(i%5) - 1.75
		}
		x[3] = math.Copysign(0, -1)
		masks := [][]int{nil, {k - 1}}
		if k > 1 {
			masks = append(masks, []int{0, k - 1})
		}
		for _, cols := range masks {
			for _, f32 := range []bool{false, true} {
				for _, selfDot := range []bool{true, false} {
					at := fmt.Sprintf("k %d cols %v f32 %v w=x %v", k, cols, f32, selfDot)
					run := func(fused bool) (y, dots []float64, flops []int64, meter simmpi.Snapshot) {
						y, dots, flops = make([]float64, n*k), make([]float64, nranks*k), make([]int64, nranks)
						w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
							lo, hi := l.Range(c.Rank())
							op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
							op.SetF32(f32)
							scratch := NewBatchDistVec(op.LZ, k)
							xl, wl := x[lo*k:hi*k], other[lo*k:hi*k]
							if fused {
								// The operand lives in the scratch, as the loop keeps d.
								copy(scratch.Local(), xl)
								xl = scratch.Local()
							}
							if selfDot {
								wl = xl
							}
							yl, out := make([]float64, (hi-lo)*k), make([]float64, k)
							for i := range out {
								out[i] = 9
							}
							var fc vecops.FlopCounter
							if fused {
								op.MulMatDot(c, xl, yl, wl, k, cols, scratch, out, &fc)
							} else {
								op.MulMat(c, xl, yl, k, cols, scratch, &fc)
								DotBatchDist(c, wl, yl, k, cols, out, &fc)
							}
							copy(y[lo*k:hi*k], yl)
							copy(dots[c.Rank()*k:], out)
							flops[c.Rank()] = fc.Count()
							return nil
						})
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						return y, dots, flops, w.Meter().Snapshot()
					}
					wantY, wantDots, wantFlops, wantMeter := run(false)
					gotY, gotDots, gotFlops, gotMeter := run(true)
					for i := range wantY {
						if math.Float64bits(gotY[i]) != math.Float64bits(wantY[i]) {
							t.Fatalf("%s: y[%d] = %v, MulMat gives %v", at, i, gotY[i], wantY[i])
						}
					}
					for i := range wantDots {
						if math.Float64bits(gotDots[i]) != math.Float64bits(wantDots[i]) {
							t.Fatalf("%s: rank %d dot %d = %v, DotBatchDist gives %v", at, i/k, i%k, gotDots[i], wantDots[i])
						}
					}
					if !slices.Equal(gotFlops, wantFlops) || !reflect.DeepEqual(gotMeter, wantMeter) {
						t.Fatalf("%s: flops %v meter %+v, the two calls count %v and %+v", at, gotFlops, gotMeter, wantFlops, wantMeter)
					}
				}
			}
		}
	}
}
