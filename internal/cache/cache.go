// Package cache implements a set-associative LRU cache simulator used to
// reproduce the paper's hardware-counter figures (L1 data-cache misses on
// accesses to the multiplying vector x during the preconditioning product
// GᵀGx — Figures 3a and 5a). The simulator is deterministic, so the
// histograms it produces are exactly reproducible, unlike PAPI counters.
//
// The model is deliberately minimal: one cache level, LRU replacement,
// physically-indexed by the byte address of each access. The experiments
// only trace accesses to the x vector, matching the paper's metric ("L1 DCM
// of accesses to multiplying vector x ... normalized to the number of G
// matrix non-zero entries").
package cache

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative cache with LRU replacement. Not safe for
// concurrent use; the experiments run one instance per simulated process.
type Cache struct {
	lineShift uint   // log₂ of the line size
	setMask   uint64 // set count − 1
	ways      int
	// tags[s·ways:][:used[s]] are the line tags resident in set s, most
	// recently used first.
	tags   []uint64
	used   []int
	hits   int64
	misses int64
}

// New creates a cache of the given total capacity. The line size and the
// resulting set count must be powers of two (hardware-like; the architecture
// profiles all satisfy this), and capacityBytes a multiple of lineBytes*ways.
func New(capacityBytes, lineBytes, ways int) (*Cache, error) {
	if lineBytes <= 0 || ways <= 0 || capacityBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %d/%d/%d", capacityBytes, lineBytes, ways)
	}
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	if lineBytes != 1<<shift {
		return nil, fmt.Errorf("cache: line size %d not a power of two in geometry %d/%d/%d", lineBytes, capacityBytes, lineBytes, ways)
	}
	if capacityBytes%(lineBytes*ways) != 0 {
		return nil, fmt.Errorf("cache: capacity %d not a multiple of line*ways = %d", capacityBytes, lineBytes*ways)
	}
	sets := capacityBytes / (lineBytes * ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return &Cache{lineShift: shift, setMask: uint64(sets - 1), ways: ways,
		tags: make([]uint64, sets*ways), used: make([]int, sets)}, nil
}

// MustNew is New that panics on error; for profile-derived geometries that
// are known valid.
func MustNew(capacityBytes, lineBytes, ways int) *Cache {
	c, err := New(capacityBytes, lineBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// LineBytes returns the cache line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Access touches the byte at addr and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	s := int(line & c.setMask)
	n := c.used[s]
	set := c.tags[s*c.ways : s*c.ways+c.ways]
	if n > 0 && set[0] == line { // a run of one line's entries hits here
		c.hits++
		return true
	}
	i := 1
	for i < n && set[i] != line {
		i++
	}
	hit := i < n
	switch {
	case hit:
		c.hits++
	case n < len(set):
		c.misses++
		c.used[s], i = n+1, n
	default:
		c.misses++
		i = n - 1 // the least recently used line leaves
	}
	for ; i > 0; i-- { // the lines in front of slot i age by one
		set[i] = set[i-1]
	}
	set[0] = line
	return hit
}

// Misses returns the accumulated miss count.
func (c *Cache) Misses() int64 { return c.misses }

// ResetStats zeroes the counters without flushing cache contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Flush empties the cache and zeroes the counters.
func (c *Cache) Flush() {
	clear(c.used)
	c.ResetStats()
}
