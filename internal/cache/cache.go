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

import "fmt"

// Cache is a set-associative cache with LRU replacement. Not safe for
// concurrent use; the experiments run one instance per simulated process.
type Cache struct {
	lineBytes int
	sets      int
	ways      int
	// tags[s] holds the line tags resident in set s, most recently used
	// last. Length ≤ ways.
	tags   [][]uint64
	hits   int64
	misses int64
}

// New creates a cache of the given total capacity. capacityBytes must be a
// multiple of lineBytes*ways, and the resulting set count must be a power of
// two (hardware-like; the architecture profiles all satisfy this).
func New(capacityBytes, lineBytes, ways int) (*Cache, error) {
	if lineBytes <= 0 || ways <= 0 || capacityBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %d/%d/%d", capacityBytes, lineBytes, ways)
	}
	if capacityBytes%(lineBytes*ways) != 0 {
		return nil, fmt.Errorf("cache: capacity %d not a multiple of line*ways = %d", capacityBytes, lineBytes*ways)
	}
	sets := capacityBytes / (lineBytes * ways)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	c := &Cache{lineBytes: lineBytes, sets: sets, ways: ways, tags: make([][]uint64, sets)}
	for s := range c.tags {
		c.tags[s] = make([]uint64, 0, ways)
	}
	return c, nil
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
func (c *Cache) LineBytes() int { return c.lineBytes }

// Access touches the byte at addr and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr / uint64(c.lineBytes)
	set := int(line % uint64(c.sets))
	ways := c.tags[set]
	for i, t := range ways {
		if t == line {
			// Move to MRU position.
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

// Misses returns the accumulated miss count.
func (c *Cache) Misses() int64 { return c.misses }

// ResetStats zeroes the counters without flushing cache contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Flush empties the cache and zeroes the counters.
func (c *Cache) Flush() {
	for s := range c.tags {
		c.tags[s] = c.tags[s][:0]
	}
	c.ResetStats()
}
