package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fsaicomm/internal/sparse"
)

// refCache is the simulator as it was before its fast path, kept as the
// reference: two divisions per access, a slice of tags per set with the most
// recently used last, found by a scan from the least recently used.
type refCache struct {
	lineBytes, sets, ways int
	tags                  [][]uint64
	hits, misses          int64
}

func newRefCache(capacityBytes, lineBytes, ways int) *refCache {
	sets := capacityBytes / (lineBytes * ways)
	c := &refCache{lineBytes: lineBytes, sets: sets, ways: ways, tags: make([][]uint64, sets)}
	for s := range c.tags {
		c.tags[s] = make([]uint64, 0, ways)
	}
	return c
}

func (c *refCache) Access(addr uint64) bool {
	line := addr / uint64(c.lineBytes)
	set := int(line % uint64(c.sets))
	ways := c.tags[set]
	for i, t := range ways {
		if t == line {
			copy(ways[i:], ways[i+1:])
			ways[len(ways)-1] = line
			c.hits++
			return true
		}
	}
	c.misses++
	if len(ways) == c.ways {
		copy(ways, ways[1:])
		ways[len(ways)-1] = line
	} else {
		c.tags[set] = append(ways, line)
	}
	return false
}

// resident returns the tags of set s, most recently used first.
func (c *Cache) resident(s int) []uint64 {
	return c.tags[s*c.ways : s*c.ways+c.used[s]]
}

// TestCacheMatchesReference drives the simulator and the reference with the
// same random addresses — a working set around the capacity, so that hits,
// refreshes and evictions all happen, with runs on one line as a CSR row
// makes them, and a flush now and then — under the geometries the
// architecture profiles give (Skylake and Zen 2 at 1, 8 and 48 cores per
// process, A64FX at 1 and 12), the cachelines example's, and 1- and 2-way
// toys. After every access it compares the answer, both counters and the
// tags resident in the set.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range [][3]int{
		{32 << 10, 64, 8}, {256 << 10, 64, 8}, {1 << 20, 64, 8},
		{64 << 10, 256, 4}, {512 << 10, 256, 4},
		{32 << 10, 64, 4}, {32 << 10, 256, 4},
		{64, 64, 1}, {4 * 64, 64, 1}, {2 * 64, 64, 2}, {16 * 8, 8, 2}, {8, 1, 2},
	} {
		capacity, line, ways := g[0], g[1], g[2]
		c, ref := MustNew(capacity, line, ways), newRefCache(capacity, line, ways)
		rng := rand.New(rand.NewSource(int64(capacity + line + ways)))
		addr := uint64(0)
		for k := 0; k < 40000; k++ {
			switch r := rng.Intn(100); {
			case r < 40: // the next entry of a run
				addr += 8
			case r == 40:
				c.Flush()
				ref = newRefCache(capacity, line, ways)
			default:
				addr = xBase + uint64(rng.Intn(3*capacity/2))
			}
			if got, want := c.Access(addr), ref.Access(addr); got != want {
				t.Fatalf("%v, access %d at %#x: hit %v, reference %v", g, k, addr, got, want)
			}
			if c.hits != ref.hits || c.misses != ref.misses {
				t.Fatalf("%v, access %d: %d hits %d misses, reference %d and %d", g, k, c.hits, c.misses, ref.hits, ref.misses)
			}
			s := int(addr / uint64(line) % uint64(ref.sets))
			want := slices.Clone(ref.tags[s])
			slices.Reverse(want)
			if got := c.resident(s); !slices.Equal(got, want) {
				t.Fatalf("%v, access %d: set %d holds %v, reference %v", g, k, s, got, want)
			}
		}
	}
}

func TestNewGeometryValidation(t *testing.T) {
	if _, err := New(0, 64, 8); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(4*96, 96, 1); err == nil {
		t.Error("a line of 96 bytes accepted")
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
