package fsai

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

// identicalCSR reports bit-identity (==, not approximate) of two factors.
// The worker pool promises that parallel scheduling never changes a single
// rounding, so these tests must not use a tolerance.
func identicalCSR(t *testing.T, label string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape/nnz %dx%d/%d, want %dx%d/%d", label,
			got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for k := range want.RowPtr {
		if got.RowPtr[k] != want.RowPtr[k] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", label, k, got.RowPtr[k], want.RowPtr[k])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("%s: ColIdx[%d] = %d, want %d", label, k, got.ColIdx[k], want.ColIdx[k])
		}
		if got.Val[k] != want.Val[k] {
			t.Fatalf("%s: Val[%d] = %v, want %v (not bit-identical)", label, k, got.Val[k], want.Val[k])
		}
	}
}

// randomSPD draws a test matrix large enough (n > one pool chunk) that the
// parallel path actually engages.
func randomSPD(rng *rand.Rand, n int) *sparse.CSR {
	return testsets.RandomSPD(rng, n, testsets.SPDOptions{
		Diag:      6,
		Chain:     -1,
		Couplings: 3 * n,
		Off:       func(r *rand.Rand) float64 { return -0.4 * r.Float64() },
	})
}

// Property: Build with one worker and with eight produces bit-identical
// factors on random SPD matrices.
func TestQuickBuildWorkersBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		a := randomSPD(rng, n)
		s := LowerPattern(a)
		want, err := BuildWorkers(a, s, 1)
		if err != nil {
			return false
		}
		got, err := BuildWorkers(a, s, 8)
		if err != nil {
			return false
		}
		identicalCSR(t, "Build", got, want)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// The filtered rebuild with a previous factor — the reuse path a filtered
// set-up runs — is bit-identical for every worker count.
func TestBuildFilteredWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomSPD(rng, 500)
	g1, err := BuildWorkers(a, LowerPattern(a), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := FilterPattern(g1, 0.05)
	want, _, err := RebuildWorkers(a, g1, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, _, err := RebuildWorkers(a, g1, s, w)
		if err != nil {
			t.Fatal(err)
		}
		identicalCSR(t, "RebuildWorkers", got, want)
	}
}

func TestPowerPatternWorkersIdentical(t *testing.T) {
	a := matgen.Poisson3D(9, 9, 9)
	want := PowerPatternWorkers(a, 3, 0.001, 1)
	for _, w := range []int{2, 8} {
		got := PowerPatternWorkers(a, 3, 0.001, w)
		if !got.Equal(want) {
			t.Fatalf("workers=%d: pattern differs from serial (nnz %d vs %d)", w, got.NNZ(), want.NNZ())
		}
		for k := range want.RowPtr {
			if got.RowPtr[k] != want.RowPtr[k] {
				t.Fatalf("workers=%d: RowPtr[%d] = %d, want %d", w, k, got.RowPtr[k], want.RowPtr[k])
			}
		}
	}
}

// The distributed build (RebuildDistWorkers with no previous factor) with
// per-rank worker pools must match the 1-worker-per-rank build bit-for-bit,
// across rank counts.
func TestBuildDistWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomSPD(rng, 300)
	n := a.Rows
	for _, nranks := range []int{1, 2, 4} {
		l := distmat.NewUniformLayout(n, nranks)
		build := func(workers int) []*sparse.CSR {
			got := make([]*sparse.CSR, nranks)
			_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
				lo, hi := l.Range(c.Rank())
				aRows := distmat.ExtractLocalRows(a, lo, hi)
				g, _, err := RebuildDistWorkers(c, l, aRows, nil, localLowerPattern(aRows, lo), workers)
				if err != nil {
					return err
				}
				got[c.Rank()] = g
				return nil
			})
			if err != nil {
				t.Fatalf("nranks=%d workers=%d: %v", nranks, workers, err)
			}
			return got
		}
		want := build(1)
		for _, w := range []int{2, 8} {
			got := build(w)
			for r := 0; r < nranks; r++ {
				identicalCSR(t, "RebuildDistWorkers", got[r], want[r])
			}
		}
	}
}
