package distmat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fsaicomm/internal/partition"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

const testTimeout = 10 * time.Second

// grid2d builds the 5-point Laplacian on an nx-by-ny grid.
func grid2d(nx, ny int) *sparse.CSR {
	n := nx * ny
	c := sparse.NewCOO(n, n)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			c.Add(i, i, 4)
			if x > 0 {
				c.Add(i, id(x-1, y), -1)
			}
			if x < nx-1 {
				c.Add(i, id(x+1, y), -1)
			}
			if y > 0 {
				c.Add(i, id(x, y-1), -1)
			}
			if y < ny-1 {
				c.Add(i, id(x, y+1), -1)
			}
		}
	}
	return c.ToCSR()
}

func TestLayoutBasics(t *testing.T) {
	l := NewUniformLayout(10, 3)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.NRanks() != 3 {
		t.Fatalf("NRanks = %d", l.NRanks())
	}
	total := 0
	for r := 0; r < 3; r++ {
		lo, hi := l.Range(r)
		total += hi - lo
		for g := lo; g < hi; g++ {
			if l.Owner(g) != r {
				t.Fatalf("Owner(%d) = %d, want %d", g, l.Owner(g), r)
			}
		}
	}
	if total != 10 {
		t.Fatalf("ranges cover %d rows, want 10", total)
	}
}

func TestLayoutOwnerOutOfRangePanics(t *testing.T) {
	l := NewUniformLayout(5, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Owner(5)
}

func TestApplyPartitionPreservesSpectrumAndStructure(t *testing.T) {
	a := grid2d(6, 6)
	g := partition.GraphFromMatrix(a)
	part, err := partition.Multilevel(g, 3, partition.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	pa, l, oldToNew := ApplyPartition(a, part, 3)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if pa.NNZ() != a.NNZ() {
		t.Fatalf("nnz changed: %d vs %d", pa.NNZ(), a.NNZ())
	}
	// P A Pᵀ entry check: pa[oldToNew[i]][oldToNew[j]] == a[i][j].
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if got := pa.At(oldToNew[i], oldToNew[j]); got != vals[k] {
				t.Fatalf("permuted entry (%d,%d) = %v, want %v", i, j, got, vals[k])
			}
		}
	}
	// Ownership is contiguous and matches the partition.
	for i := 0; i < a.Rows; i++ {
		if l.Owner(oldToNew[i]) != part[i] {
			t.Fatalf("row %d assigned to %d, want %d", i, l.Owner(oldToNew[i]), part[i])
		}
	}
	// Permuted matrix stays symmetric.
	if !pa.IsSymmetric(1e-14) {
		t.Fatal("permuted matrix not symmetric")
	}
}

func TestPermuteVecRoundTrip(t *testing.T) {
	x := []float64{10, 20, 30, 40}
	oldToNew := []int{2, 0, 3, 1}
	y := PermuteVec(x, oldToNew)
	for i, v := range x {
		if y[oldToNew[i]] != v {
			t.Fatalf("PermuteVec wrong at %d", i)
		}
	}
}

func TestLocalizeMapping(t *testing.T) {
	a := grid2d(4, 4)
	lo, hi := 4, 8 // second row of the grid
	rows := ExtractLocalRows(a, lo, hi)
	lz := Localize(lo, hi, rows)
	if lz.NLocal() != 4 {
		t.Fatalf("NLocal = %d", lz.NLocal())
	}
	// Halo of the strip are the grid rows above and below: 8 columns.
	if len(lz.Halo) != 8 {
		t.Fatalf("halo size = %d, want 8: %v", len(lz.Halo), lz.Halo)
	}
	for k := 1; k < len(lz.Halo); k++ {
		if lz.Halo[k-1] >= lz.Halo[k] {
			t.Fatal("halo not sorted")
		}
	}
	if err := lz.M.Validate(); err != nil {
		t.Fatalf("localized matrix invalid: %v", err)
	}
	if lz.M.Cols != lz.NLocal()+len(lz.Halo) {
		t.Fatalf("localized cols = %d", lz.M.Cols)
	}
}

// distSpMV computes y = A x with nranks simulated processes and compares to
// the serial product.
func distSpMVCheck(t *testing.T, a *sparse.CSR, nranks int, seed int64) {
	t.Helper()
	n := a.Rows
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	a.MulVec(x, want)

	l := NewUniformLayout(n, nranks)
	got := make([]float64, n)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		rows := ExtractLocalRows(a, lo, hi)
		op := NewOp(c, l, lo, hi, rows)
		scratch := NewDistVec(op.LZ)
		y := make([]float64, hi-lo)
		op.MulVec(c, x[lo:hi], y, scratch, nil)
		copy(got[lo:hi], y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("nranks=%d: y[%d] = %v, want %v", nranks, i, got[i], want[i])
		}
	}
}

func TestDistributedSpMVMatchesSerial(t *testing.T) {
	a := grid2d(8, 9)
	for _, nr := range []int{1, 2, 3, 5, 8} {
		distSpMVCheck(t, a, nr, int64(nr))
	}
}

func TestDistributedSpMVPartitioned(t *testing.T) {
	a := grid2d(10, 10)
	g := partition.GraphFromMatrix(a)
	part, err := partition.Multilevel(g, 4, partition.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pa, _, _ := ApplyPartition(a, part, 4)
	distSpMVCheck(t, pa, 4, 77)
}

func TestHaloPlanSymmetry(t *testing.T) {
	// send(p→q) must mirror recv(q←p) as global unknown sets.
	a := grid2d(7, 7)
	n := a.Rows
	nranks := 3
	l := NewUniformLayout(n, nranks)
	sends := make([][][]int, nranks)
	recvs := make([][][]int, nranks)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		rows := ExtractLocalRows(a, lo, hi)
		lz := Localize(lo, hi, rows)
		plan := BuildHaloPlan(c, l, lz)
		sends[c.Rank()] = plan.SendGlobals(lz)
		recvs[c.Rank()] = plan.RecvGlobals(lz)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nranks; p++ {
		for q := 0; q < nranks; q++ {
			if p == q {
				continue
			}
			if !GlobalsEqual([][]int{sends[p][q]}, [][]int{recvs[q][p]}) {
				t.Fatalf("send %d→%d = %v, recv %d←%d = %v",
					p, q, sends[p][q], q, p, recvs[q][p])
			}
		}
	}
}

func TestHaloTrafficMatchesPlan(t *testing.T) {
	a := grid2d(6, 6)
	n := a.Rows
	nranks := 4
	l := NewUniformLayout(n, nranks)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	var sendCounts [4]int
	w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		c.Barrier()
		sendCounts[c.Rank()] = op.Plan.SendCount()
		scratch := NewDistVec(op.LZ)
		y := make([]float64, hi-lo)
		// Meter only the solve-phase exchange: reset after setup.
		if c.Rank() == 0 {
			c.Meter().Reset()
		}
		c.Barrier()
		op.MulVec(c, x[lo:hi], y, scratch, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(0)
	for _, s := range sendCounts {
		wantBytes += int64(8 * s)
	}
	if got := w.Meter().TotalP2PBytes(); got != wantBytes {
		t.Fatalf("metered %d bytes, want %d", got, wantBytes)
	}
}

func TestGatherRemoteRows(t *testing.T) {
	a := grid2d(5, 5)
	n := a.Rows
	nranks := 3
	l := NewUniformLayout(n, nranks)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		rows := ExtractLocalRows(a, lo, hi)
		// Every rank asks for a mix of local and remote rows (same set).
		wanted := []int{0, n / 2, n - 1, lo}
		got := GatherRemoteRows(c, l, lo, hi, rows, wanted)
		for _, g := range wanted {
			gc, gv := got.Row(g) // panics on a row that was not gathered
			wc, wv := a.Row(g)
			if len(gc) != len(wc) {
				return fmt.Errorf("rank %d row %d: %d cols, want %d", c.Rank(), g, len(gc), len(wc))
			}
			for k := range wc {
				if gc[k] != wc[k] || gv[k] != wv[k] {
					return fmt.Errorf("rank %d row %d entry %d mismatch", c.Rank(), g, k)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherRemoteRowsUnevenNeeds: the gather is collective even when only
// some ranks want anything — a rank with an empty list (or a purely local
// one) still joins the count exchange and serves its peers — and a row that
// was never asked for is refused loudly.
func TestGatherRemoteRowsUnevenNeeds(t *testing.T) {
	a := grid2d(6, 4)
	n := a.Rows
	nranks := 4
	l := NewUniformLayout(n, nranks)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		rows := ExtractLocalRows(a, lo, hi)
		var wanted []int
		switch c.Rank() {
		case 1:
			wanted = []int{lo} // local only
		case 2:
			wanted = []int{n - 1, 0, 0, n - 1, lo} // every other rank, repeated
		}
		got := GatherRemoteRows(c, l, lo, hi, rows, wanted)
		for _, g := range wanted {
			gc, gv := got.Row(g)
			wc, wv := a.Row(g)
			if !slices.Equal(gc, wc) || !slices.Equal(gv, wv) {
				return fmt.Errorf("rank %d row %d: got %v %v, want %v %v", c.Rank(), g, gc, gv, wc, wv)
			}
		}
		if c.Rank() == 2 {
			defer func() {
				if recover() == nil {
					t.Error("Row served a remote row that was never gathered")
				}
			}()
			got.Row(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransposeDistMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 30
	c0 := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c0.Add(i, i, 1)
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			c0.Add(i, j, rng.NormFloat64())
		}
	}
	a := c0.ToCSR()
	want := a.Transpose()
	nranks := 4
	l := NewUniformLayout(n, nranks)
	got := make([]*sparse.CSR, nranks)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		rows := ExtractLocalRows(a, lo, hi)
		got[c.Rank()] = TransposeDist(c, l, lo, hi, rows)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nranks; r++ {
		lo, hi := l.Range(r)
		for li := 0; li < hi-lo; li++ {
			gc, gv := got[r].Row(li)
			wc, wv := want.Row(lo + li)
			if len(gc) != len(wc) {
				t.Fatalf("rank %d row %d: %d entries, want %d", r, lo+li, len(gc), len(wc))
			}
			for k := range wc {
				if gc[k] != wc[k] || gv[k] != wv[k] {
					t.Fatalf("rank %d row %d entry %d mismatch", r, lo+li, k)
				}
			}
		}
	}
}

// randomLayout cuts n rows into nranks contiguous blocks at random places;
// blocks may be empty.
func randomLayout(rng *rand.Rand, n, nranks int) *Layout {
	off := make([]int, nranks+1)
	for r := 1; r < nranks; r++ {
		off[r] = rng.Intn(n + 1)
	}
	off[nranks] = n
	sort.Ints(off)
	return &Layout{N: n, Offsets: off}
}

// TestTransposeDistRandomLayouts: on 1–5 ranks over random (also empty)
// blocks of a random nonsymmetric matrix, every rank's rows of the
// distributed transpose equal those rows of CSR.Transpose, bit for bit, and
// arrive sorted — TransposeDist assembles them without sorting.
func TestTransposeDistRandomLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(40)
		c0 := sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			for _, j := range rng.Perm(n)[:rng.Intn(min(n, 6)+1)] {
				c0.Add(i, j, rng.NormFloat64())
			}
		}
		a := c0.ToCSR()
		want := a.Transpose()
		nranks := 1 + trial%5
		l := randomLayout(rng, n, nranks)
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
		got := make([]*sparse.CSR, nranks)
		if _, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			got[c.Rank()] = TransposeDist(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
			return nil
		}); err != nil {
			t.Fatalf("trial %d (n=%d, offsets %v): %v", trial, n, l.Offsets, err)
		}
		for r := 0; r < nranks; r++ {
			lo, hi := l.Range(r)
			if err := got[r].Validate(); err != nil { // sorted rows, in-range columns
				t.Fatalf("trial %d rank %d: %v", trial, r, err)
			}
			if got[r].Rows != hi-lo || got[r].Cols != n {
				t.Fatalf("trial %d rank %d: shape %dx%d, want %dx%d", trial, r, got[r].Rows, got[r].Cols, hi-lo, n)
			}
			for li := 0; li < hi-lo; li++ {
				gc, gv := got[r].Row(li)
				wc, wv := want.Row(lo + li)
				if !slices.Equal(gc, wc) || !slices.Equal(gv, wv) {
					t.Fatalf("trial %d rank %d row %d: got %v %v, want %v %v", trial, r, lo+li, gc, gv, wc, wv)
				}
			}
		}
	}
}

// TestTransposeDistRejectsForeignColumn: a rank that receives an entry for a
// row it does not own (here: the ranks disagree on where the blocks meet)
// must panic, as GatherRemoteRows does on a request for a non-local row,
// rather than file the entry under a wrong row.
func TestTransposeDistRejectsForeignColumn(t *testing.T) {
	a := grid2d(4, 4)
	n := a.Rows
	layouts := []*Layout{
		{N: n, Offsets: []int{0, n / 2, n}},
		{N: n, Offsets: []int{0, n/2 + 1, n}}, // rank 1 thinks row n/2 is rank 0's
	}
	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		l := layouts[c.Rank()]
		lo, hi := l.Range(c.Rank())
		TransposeDist(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "outside rows") {
		t.Fatalf("foreign column not rejected: %v", err)
	}
}

// TestLocalizeSortedAndUnsortedRows: Localize places a row sorted by global
// column without sorting it, and still orders a row that was not.
func TestLocalizeSortedAndUnsortedRows(t *testing.T) {
	// Rows 3..5 of a 9-column matrix; row 1 is stored out of column order.
	sorted := &sparse.CSR{Rows: 3, Cols: 9,
		RowPtr: []int{0, 4, 9, 10},
		ColIdx: []int{1, 3, 5, 8 /**/, 0, 2, 4, 5, 7 /**/, 4},
		Val:    []float64{1, 3, 5, 8 /**/, 10, 12, 14, 15, 17 /**/, 24}}
	shuffled := sorted.Clone()
	copy(shuffled.ColIdx[4:9], []int{7, 4, 0, 5, 2})
	copy(shuffled.Val[4:9], []float64{17, 14, 10, 15, 12})
	want := Localize(3, 6, sorted)
	if err := want.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want.Halo, []int{0, 1, 2, 7, 8}) {
		t.Fatalf("halo %v", want.Halo)
	}
	// locals 3,4,5 → 0,1,2; halo 0,1,2,7,8 → 3,4,5,6,7
	if !slices.Equal(want.M.ColIdx, []int{0, 2, 4, 7 /**/, 1, 2, 3, 5, 6 /**/, 1}) ||
		!slices.Equal(want.M.Val, []float64{3, 5, 1, 8 /**/, 14, 15, 10, 12, 17 /**/, 24}) {
		t.Fatalf("localized %v %v", want.M.ColIdx, want.M.Val)
	}
	got := Localize(3, 6, shuffled)
	if !slices.Equal(got.M.ColIdx, want.M.ColIdx) || !slices.Equal(got.M.Val, want.M.Val) || !slices.Equal(got.Halo, want.Halo) {
		t.Fatalf("unsorted input localized to %v %v", got.M.ColIdx, got.M.Val)
	}
}

// TestPermuteMatchesEntrywise: P A Pᵀ for random permutations, checked
// position by position, with valid (sorted) rows.
func TestPermuteMatchesEntrywise(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		c0 := sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			for _, j := range rng.Perm(n)[:rng.Intn(min(n, 5)+1)] {
				c0.Add(i, j, rng.NormFloat64())
			}
		}
		a := c0.ToCSR()
		oldToNew := rng.Perm(n)
		pa := Permute(a, oldToNew)
		if err := pa.Validate(); err != nil {
			t.Fatal(err)
		}
		if pa.NNZ() != a.NNZ() {
			t.Fatalf("nnz %d, want %d", pa.NNZ(), a.NNZ())
		}
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			for k, j := range cols {
				if got := pa.At(oldToNew[i], oldToNew[j]); got != vals[k] {
					t.Fatalf("(%d,%d)→(%d,%d) = %v, want %v", i, j, oldToNew[i], oldToNew[j], got, vals[k])
				}
			}
		}
	}
}

func TestDistributedDotAndNorm(t *testing.T) {
	n := 40
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) - 2
		y[i] = float64(i%3) - 1
	}
	var wantDot float64
	for i := range x {
		wantDot += x[i] * y[i]
	}
	l := NewUniformLayout(n, 4)
	_, err := simmpi.Run(4, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		d := Dot(c, x[lo:hi], y[lo:hi], nil)
		if math.Abs(d-wantDot) > 1e-10 {
			return fmt.Errorf("dot = %v, want %v", d, wantDot)
		}
		nm := Norm2(c, x[lo:hi], nil)
		var wantN float64
		for _, v := range x {
			wantN += v * v
		}
		if math.Abs(nm-math.Sqrt(wantN)) > 1e-10 {
			return fmt.Errorf("norm = %v, want %v", nm, math.Sqrt(wantN))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNNZImbalanceIndex(t *testing.T) {
	_, err := simmpi.Run(4, testTimeout, func(c *simmpi.Comm) error {
		// Ranks hold 10, 10, 10, 30 entries: avg 15, max 30, index 0.5.
		local := 10
		if c.Rank() == 3 {
			local = 30
		}
		idx := NNZImbalanceIndex(c, local)
		if math.Abs(idx-0.5) > 1e-12 {
			return fmt.Errorf("imbalance = %v, want 0.5", idx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: distributed SpMV equals serial SpMV for random symmetric
// matrices and random rank counts.
func TestQuickDistributedSpMV(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		c := sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			c.Add(i, i, 4)
		}
		for k := 0; k < 2*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				c.AddSym(i, j, rng.NormFloat64())
			}
		}
		a := c.ToCSR()
		nranks := 1 + rng.Intn(6)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		a.MulVec(x, want)
		l := NewUniformLayout(n, nranks)
		got := make([]float64, n)
		_, err := simmpi.Run(nranks, testTimeout, func(cm *simmpi.Comm) error {
			lo, hi := l.Range(cm.Rank())
			op := NewOp(cm, l, lo, hi, ExtractLocalRows(a, lo, hi))
			y := make([]float64, hi-lo)
			op.MulVec(cm, x[lo:hi], y, NewDistVec(op.LZ), nil)
			copy(got[lo:hi], y)
			return nil
		})
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankNoHalo(t *testing.T) {
	a := grid2d(5, 5)
	l := NewUniformLayout(a.Rows, 1)
	_, err := simmpi.Run(1, testTimeout, func(c *simmpi.Comm) error {
		op := NewOp(c, l, 0, a.Rows, ExtractLocalRows(a, 0, a.Rows))
		if len(op.LZ.Halo) != 0 {
			return fmt.Errorf("single rank has halo %v", op.LZ.Halo)
		}
		if op.Plan.RecvCount() != 0 || op.Plan.SendCount() != 0 {
			return fmt.Errorf("single rank plan not empty")
		}
		x := make([]float64, a.Rows)
		y := make([]float64, a.Rows)
		for i := range x {
			x[i] = 1
		}
		op.MulVec(c, x, y, NewDistVec(op.LZ), nil)
		// Row sums of the grid Laplacian are 0 in the interior, positive on
		// the boundary.
		if y[a.Rows/2+3] < 0 {
			return fmt.Errorf("unexpected SpMV result")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlanEqualAndGlobalsEqual(t *testing.T) {
	p1 := &HaloPlan{SendPeers: [][]int{{1, 2}, nil}, RecvPeers: [][]int{nil, {0}}}
	p2 := &HaloPlan{SendPeers: [][]int{{1, 2}, nil}, RecvPeers: [][]int{nil, {0}}}
	if !PlanEqual(p1, p2) {
		t.Fatal("identical plans not equal")
	}
	p2.SendPeers[0] = []int{1, 3}
	if PlanEqual(p1, p2) {
		t.Fatal("different plans reported equal")
	}
	if !GlobalsEqual([][]int{{3, 1}}, [][]int{{1, 3}}) {
		t.Fatal("order-insensitive comparison failed")
	}
	if GlobalsEqual([][]int{{1}}, [][]int{{1}, {2}}) {
		t.Fatal("length mismatch accepted")
	}
	if GlobalsEqual([][]int{{1, 2}}, [][]int{{1, 3}}) {
		t.Fatal("different sets accepted")
	}
}

func TestExchangePayloadSizeMismatchPanics(t *testing.T) {
	// A plan whose recv slots disagree with the sender's list must panic.
	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		plan := &HaloPlan{
			SendPeers: make([][]int, 2),
			RecvPeers: make([][]int, 2),
		}
		if c.Rank() == 0 {
			plan.SendPeers[1] = []int{0, 1} // sends two values
			plan.sendPeerIDs = []int{1}
			xExt := []float64{1, 2}
			plan.Exchange(c, xExt, 2)
		} else {
			plan.RecvPeers[0] = []int{0} // expects one
			plan.recvPeerIDs = []int{0}
			xExt := make([]float64, 2)
			plan.Exchange(c, xExt, 1)
		}
		return nil
	})
	if err == nil {
		t.Fatal("size mismatch not detected")
	}
}

// Op.MulVec against the indexed loop over the localized rows, bit for bit,
// in both precisions, and against the serial product within rounding (the
// localized column order differs).
func TestOverlapMatchesBlocking(t *testing.T) {
	a := grid2d(9, 9)
	n := a.Rows
	rng := rand.New(rand.NewSource(33))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	a.MulVec(x, want)
	nranks := 4
	l := NewUniformLayout(n, nranks)
	for _, f32 := range []bool{false, true} {
		got := make([]float64, n)
		_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
			op.SetF32(f32)
			scratch := NewDistVec(op.LZ)
			y := make([]float64, hi-lo)
			op.MulVec(c, x[lo:hi], y, scratch, nil)
			m, m32 := op.LZ.M, op.LZ.M32()
			for li := range y {
				sum := 0.0
				for k := m.RowPtr[li]; k < m.RowPtr[li+1]; k++ {
					if f32 {
						sum += float64(m32.Val[k]) * scratch.Ext[m.ColIdx[k]]
					} else {
						sum += m.Val[k] * scratch.Ext[m.ColIdx[k]]
					}
				}
				if y[li] != sum {
					return fmt.Errorf("rank %d f32=%v row %d: product %v, indexed loop %v",
						c.Rank(), f32, li, y[li], sum)
				}
			}
			copy(got[lo:hi], y)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-12
		if f32 {
			tol = 1e-6
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
				t.Fatalf("f32=%v: y[%d] = %v, want %v", f32, i, got[i], want[i])
			}
		}
	}
}

// A product counts its 2·nnz flops, what the cost model charges for it.
func TestOverlapFlopCount(t *testing.T) {
	a := grid2d(6, 6)
	l := NewUniformLayout(a.Rows, 2)
	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		var fc vecops.FlopCounter
		y := make([]float64, hi-lo)
		x := make([]float64, hi-lo)
		op.MulVec(c, x, y, NewDistVec(op.LZ), &fc)
		if fc.Count() != 2*int64(op.LZ.M.NNZ()) {
			return fmt.Errorf("flops %d, want %d", fc.Count(), 2*op.LZ.M.NNZ())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// WithOverlap is kept as a spelling and changes nothing: the operator it
// builds is the one built without it.
func TestNewOpWithOverlap(t *testing.T) {
	a := grid2d(6, 6)
	l := NewUniformLayout(a.Rows, 2)
	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		plain := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		if with := NewOpFromParts(plain.LZ, plain.Plan, WithOverlap()); *with != *plain {
			return fmt.Errorf("rank %d: WithOverlap changed the operator", c.Rank())
		}
		with := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi), WithOverlap())
		if !PlanEqual(with.Plan, plain.Plan) || with.f32 != plain.f32 {
			return fmt.Errorf("rank %d: WithOverlap changed the plan", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ExchangeBatch reuses its gather buffers: repeated k-wide halo updates keep
// each peer's send buffer (no allocation on the send side) and keep
// producing the right values as the input changes.
func TestExchangeBatchBufferReuse(t *testing.T) {
	a := grid2d(8, 8)
	n := a.Rows
	const k = 2
	l := NewUniformLayout(n, 2)
	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		scratch := NewBatchDistVec(op.LZ, k)
		x, y := make([]float64, (hi-lo)*k), make([]float64, (hi-lo)*k)
		col, want := make([]float64, n), make([]float64, n)
		var first []*float64
		for round := 0; round < 3; round++ {
			for i := range x {
				x[i] = float64((lo+i/k+1)*(i%k+1) + round)
			}
			op.MulMat(c, x, y, k, nil, scratch, nil)
			sendBuf := op.Plan.wire().(*halo[float64]).sendBuf
			var bufs []*float64
			for _, buf := range sendBuf {
				if len(buf) > 0 {
					bufs = append(bufs, &buf[0])
				}
			}
			if len(bufs) == 0 {
				return fmt.Errorf("rank %d sent nothing", c.Rank())
			}
			if first == nil {
				first = bufs
			} else if !slices.Equal(bufs, first) {
				return fmt.Errorf("rank %d round %d: a send buffer was reallocated", c.Rank(), round)
			}
			for j := 0; j < k; j++ {
				for i := range col {
					col[i] = float64((i+1)*(j+1) + round)
				}
				a.MulVec(col, want)
				for i := lo; i < hi; i++ {
					if got := y[(i-lo)*k+j]; math.Abs(got-want[i]) > 1e-12*(1+math.Abs(want[i])) {
						return fmt.Errorf("rank %d round %d: y[%d] column %d = %v, want %v", c.Rank(), round, i, j, got, want[i])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Repeated products over one scratch give the first product's bits, and
// each is metered as one halo update: the rank's bytes and messages are
// three times what ExchangeCounts predicts for one.
func TestOverlapAsyncMatchesBlockingAndMeter(t *testing.T) {
	a := grid2d(9, 9)
	n := a.Rows
	rng := rand.New(rand.NewSource(41))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	const nranks = 4
	l := NewUniformLayout(n, nranks)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		scratch := NewDistVec(op.LZ)
		first, y := make([]float64, hi-lo), make([]float64, hi-lo)
		before := c.Meter().RankSnapshot(c.Rank())
		op.MulVec(c, x[lo:hi], first, scratch, nil)
		for k := 0; k < 2; k++ { // repeat: buffer reuse must hold
			op.MulVec(c, x[lo:hi], y, scratch, nil)
			if !slices.Equal(y, first) {
				return fmt.Errorf("rank %d product %d: %v, first %v (must be bit-identical)", c.Rank(), k+2, y, first)
			}
		}
		d := c.Meter().RankSnapshot(c.Rank()).Sub(before)
		if m, b := op.Plan.ExchangeCounts(1); d.P2PMessages != 3*m || d.P2PBytes != 3*b {
			return fmt.Errorf("rank %d: metered %d messages, %d bytes; want 3 × (%d, %d)", c.Rank(), d.P2PMessages, d.P2PBytes, m, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
