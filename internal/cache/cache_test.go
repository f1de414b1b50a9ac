package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fsaicomm/internal/sparse"
)

func TestNewGeometryValidation(t *testing.T) {
	if _, err := New(0, 64, 8); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(100, 64, 8); err == nil {
		t.Error("non-multiple capacity accepted")
	}
	if _, err := New(3*64*8, 64, 8); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New(32*1024, 64, 8); err != nil {
		t.Errorf("Skylake-like geometry rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew(100, 64, 8)
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(1024, 64, 2)
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(8) {
		t.Fatal("same-line access missed")
	}
	if !c.Access(63) {
		t.Fatal("line-end access missed")
	}
	if c.Access(64) {
		t.Fatal("next-line access hit")
	}
	if c.hits != 2 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d", c.hits, c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 2 ways, 1 set => capacity 2 lines.
	c := MustNew(2*64, 64, 2)
	c.Access(0 * 64)
	c.Access(1 * 64)
	c.Access(2 * 64) // evicts line 0 (LRU)
	if c.Access(0 * 64) {
		t.Fatal("evicted line still resident")
	}
	// Now lines 2 and 0 resident (1 was LRU when 0 re-entered).
	if c.Access(1 * 64) {
		t.Fatal("line 1 should have been evicted")
	}
}

func TestLRUTouchRefreshes(t *testing.T) {
	c := MustNew(2*64, 64, 2)
	c.Access(0 * 64)
	c.Access(1 * 64)
	c.Access(0 * 64) // refresh 0; LRU is now 1
	c.Access(2 * 64) // evicts 1
	if !c.Access(0 * 64) {
		t.Fatal("refreshed line was evicted")
	}
}

func TestSetIndexing(t *testing.T) {
	// 2 sets, 1 way: addresses in different sets don't evict each other.
	c := MustNew(2*64, 64, 1)
	c.Access(0 * 64) // set 0
	c.Access(1 * 64) // set 1
	if !c.Access(0 * 64) {
		t.Fatal("cross-set eviction happened")
	}
}

func TestFlushAndResetStats(t *testing.T) {
	c := MustNew(1024, 64, 2)
	c.Access(0)
	c.ResetStats()
	if c.hits != 0 || c.Misses() != 0 {
		t.Fatal("ResetStats did not zero")
	}
	if !c.Access(0) {
		t.Fatal("ResetStats flushed contents")
	}
	c.Flush()
	if c.Access(0) {
		t.Fatal("Flush kept contents")
	}
}

func TestTraceSpMVSequentialRowsReuseLines(t *testing.T) {
	// Dense band matrix: consecutive rows touch overlapping x entries, so
	// misses should approach nnz / (line width) rather than nnz.
	n := 512
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := i - 2; j <= i+2; j++ {
			if j >= 0 && j < n {
				coo.Add(i, j, 1)
			}
		}
	}
	m := coo.ToCSR()
	c := MustNew(32*1024, 64, 8)
	misses := TraceSpMVOnX(m, c)
	lines := int64(n * 8 / 64)
	if misses != lines {
		t.Fatalf("banded SpMV misses = %d, want %d (one per x line)", misses, lines)
	}
}

func TestTraceSpMVRandomWorseThanBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 4096
	nnzPerRow := 8
	band := sparse.NewCOO(n, n)
	random := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			j := i - nnzPerRow/2 + k
			if j < 0 {
				j += n
			}
			if j >= n {
				j -= n
			}
			band.Add(i, j, 1)
			random.Add(i, rng.Intn(n), 1)
		}
	}
	cb := MustNew(8*1024, 64, 8)
	cr := MustNew(8*1024, 64, 8)
	mb := TraceSpMVOnX(band.ToCSR(), cb)
	mr := TraceSpMVOnX(random.ToCSR(), cr)
	if mb >= mr {
		t.Fatalf("banded misses %d not below random misses %d", mb, mr)
	}
}

func TestWiderLinesReduceMissesOnContiguousAccess(t *testing.T) {
	// The A64FX effect: 256-byte lines cover 32 doubles, so a contiguous
	// sweep misses 4x less than with 64-byte lines.
	n := 2048
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	m := coo.ToCSR()
	c64 := MustNew(16*1024, 64, 4)
	c256 := MustNew(64*1024, 256, 4)
	m64 := TraceSpMVOnX(m, c64)
	m256 := TraceSpMVOnX(m, c256)
	if m64 != 4*m256 {
		t.Fatalf("64B misses %d, 256B misses %d; want 4x ratio", m64, m256)
	}
}

func TestTracePrecondProductFlushes(t *testing.T) {
	m := func() *sparse.CSR {
		coo := sparse.NewCOO(8, 8)
		for i := 0; i < 8; i++ {
			coo.Add(i, i, 1)
		}
		return coo.ToCSR()
	}()
	c := MustNew(1024, 64, 2)
	a := TracePrecondProduct(m, m, c)
	b := TracePrecondProduct(m, m, c)
	if a != b {
		t.Fatalf("trace not reproducible: %d vs %d", a, b)
	}
	if a <= 0 {
		t.Fatalf("no misses recorded")
	}
}

func TestMissesPerNNZEmptyMatrix(t *testing.T) {
	m := sparse.NewCSR(4, 4, 0)
	c := MustNew(1024, 64, 2)
	if got := MissesPerNNZ(m, m, c); got != 0 {
		t.Fatalf("empty matrix metric = %v", got)
	}
}

// Property: hits + misses equals the number of accesses, and re-walking the
// same trace immediately is all hits when it fits in cache.
func TestQuickConservationAndResidency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(4096, 64, 4) // 64 lines
		n := 1 + rng.Intn(40)     // working set ≤ 40 lines < capacity
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(40)) * 64
		}
		for _, a := range addrs {
			c.Access(a)
		}
		if c.hits+c.Misses() != int64(len(addrs)) {
			return false
		}
		c.ResetStats()
		for _, a := range addrs {
			if !c.Access(a) {
				return false // resident set must hit
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
