package partition

import (
	"fmt"
	"math/rand"
	"sort"
)

// Options configures the multilevel partitioner.
type Options struct {
	// Seed makes the partitioner deterministic. The default (0) is a valid
	// seed.
	Seed int64
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices. Default 64.
	CoarsenTo int
	// RefinePasses bounds the number of FM refinement passes per level.
	// Default 8.
	RefinePasses int
	// ImbalanceTol is the allowed part-weight imbalance during bisection
	// (e.g. 0.05 allows 52.5/47.5 splits). Default 0.05.
	ImbalanceTol float64
}

func (o Options) withDefaults() Options {
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 64
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
	if o.ImbalanceTol <= 0 {
		o.ImbalanceTol = 0.05
	}
	return o
}

// Multilevel partitions g into nparts parts by recursive bisection and
// returns the per-vertex part assignment.
func Multilevel(g *Graph, nparts int, opt Options) ([]int, error) {
	if nparts < 1 {
		return nil, fmt.Errorf("partition: nparts %d < 1", nparts)
	}
	opt = opt.withDefaults()
	part := make([]int, g.N)
	if nparts == 1 {
		return part, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	verts := make([]int, g.N)
	for i := range verts {
		verts[i] = i
	}
	recursiveBisect(g, verts, 0, nparts, part, rng, opt)
	return part, nil
}

// recursiveBisect splits the sub-graph induced by verts into parts
// [base, base+k) and writes assignments into part.
func recursiveBisect(g *Graph, verts []int, base, k int, part []int, rng *rand.Rand, opt Options) {
	if k == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	kl := k / 2
	kr := k - kl
	// Target fraction of weight on the left side.
	frac := float64(kl) / float64(k)
	sub := induce(g, verts)
	side := bisect(sub, frac, rng, opt)
	var left, right []int
	for i, v := range verts {
		if side[i] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	recursiveBisect(g, left, base, kl, part, rng, opt)
	recursiveBisect(g, right, base+kl, kr, part, rng, opt)
}

// induce builds the sub-graph of g induced by verts (edges to outside
// vertices are dropped).
func induce(g *Graph, verts []int) *Graph {
	local := make([]int, g.N) // sub-graph index of each vertex, -1 outside
	for i := range local {
		local[i] = -1
	}
	deg := 0
	for i, v := range verts {
		local[v] = i
		deg += g.Ptr[v+1] - g.Ptr[v]
	}
	sub := &Graph{
		N:       len(verts),
		Ptr:     make([]int, len(verts)+1),
		Adj:     make([]int, 0, deg),
		EWeight: make([]int64, 0, deg),
		VWeight: make([]int64, len(verts)),
	}
	for i, v := range verts {
		sub.VWeight[i] = g.VWeight[v]
		adj, ew := g.Neighbors(v)
		for k, u := range adj {
			if j := local[u]; j >= 0 {
				sub.Adj = append(sub.Adj, j)
				sub.EWeight = append(sub.EWeight, ew[k])
			}
		}
		sub.Ptr[i+1] = len(sub.Adj)
	}
	return sub
}

// bisect splits g into sides 0/1 with roughly frac of the vertex weight on
// side 0, using multilevel coarsening + greedy growing + FM refinement.
func bisect(g *Graph, frac float64, rng *rand.Rand, opt Options) []int {
	if g.N <= opt.CoarsenTo {
		side := growBisection(g, frac, rng)
		fmRefine(g, side, frac, rng, opt)
		return side
	}
	coarse, cmap := coarsen(g, rng)
	if coarse.N >= g.N { // matching made no progress; fall back
		side := growBisection(g, frac, rng)
		fmRefine(g, side, frac, rng, opt)
		return side
	}
	cside := bisect(coarse, frac, rng, opt)
	side := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		side[v] = cside[cmap[v]]
	}
	fmRefine(g, side, frac, rng, opt)
	return side
}

// coarsen contracts a heavy-edge matching and returns the coarse graph plus
// the fine→coarse vertex map.
func coarsen(g *Graph, rng *rand.Rand) (*Graph, []int) {
	match := make([]int, g.N)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(g.N)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		adj, ew := g.Neighbors(v)
		best, bestW := -1, int64(-1)
		for k, u := range adj {
			if match[u] == -1 && u != v && ew[k] > bestW {
				best, bestW = u, ew[k]
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	cmap := make([]int, g.N)
	nc := 0
	for v := 0; v < g.N; v++ {
		u := match[v]
		if v <= u {
			cmap[v] = nc
			if u != v {
				cmap[u] = nc
			}
			nc++
		}
	}
	coarse := &Graph{
		N:       nc,
		Ptr:     make([]int, nc+1),
		Adj:     make([]int, 0, len(g.Adj)),
		EWeight: make([]int64, 0, len(g.Adj)),
		VWeight: make([]int64, nc),
	}
	for v := 0; v < g.N; v++ {
		coarse.VWeight[cmap[v]] += g.VWeight[v]
	}
	// slot[cu] is where coarse neighbour cu sits in coarse.Adj if it was met
	// while building the current row, i.e. if slot[cu] is at or past the
	// row's start; rows only grow the arrays, so stale slots fall below it.
	slot := make([]int, nc)
	for i := range slot {
		slot[i] = -1
	}
	var row adjSorter
	for v := 0; v < g.N; v++ {
		if v > match[v] {
			continue // built when its smaller partner came up
		}
		c := cmap[v]
		start := len(coarse.Adj)
		absorb := func(member int) {
			adj, ew := g.Neighbors(member)
			for k, u := range adj {
				cu := cmap[u]
				switch {
				case cu == c:
				case slot[cu] >= start:
					coarse.EWeight[slot[cu]] += ew[k]
				default:
					slot[cu] = len(coarse.Adj)
					coarse.Adj = append(coarse.Adj, cu)
					coarse.EWeight = append(coarse.EWeight, ew[k])
				}
			}
		}
		absorb(v)
		if match[v] != v {
			absorb(match[v])
		}
		row.adj, row.ew = coarse.Adj[start:], coarse.EWeight[start:]
		sort.Sort(&row)
		coarse.Ptr[c+1] = len(coarse.Adj)
	}
	return coarse, cmap
}

// adjSorter orders one vertex's neighbour list by neighbour id, carrying the
// edge weights along.
type adjSorter struct {
	adj []int
	ew  []int64
}

func (s *adjSorter) Len() int           { return len(s.adj) }
func (s *adjSorter) Less(i, j int) bool { return s.adj[i] < s.adj[j] }
func (s *adjSorter) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.ew[i], s.ew[j] = s.ew[j], s.ew[i]
}

// growBisection seeds side 0 from a random vertex and grows it by BFS until
// it holds ~frac of the total weight; everything else is side 1.
func growBisection(g *Graph, frac float64, rng *rand.Rand) []int {
	side := make([]int, g.N)
	for i := range side {
		side[i] = 1
	}
	if g.N == 0 {
		return side
	}
	target := int64(float64(g.TotalVWeight()) * frac)
	var w int64
	visited := make([]bool, g.N)
	var queue []int
	for w < target {
		// Pick an unvisited seed (handles disconnected graphs).
		seed := -1
		for tries := 0; tries < 8; tries++ {
			s := rng.Intn(g.N)
			if !visited[s] {
				seed = s
				break
			}
		}
		if seed == -1 {
			for v := 0; v < g.N; v++ {
				if !visited[v] {
					seed = v
					break
				}
			}
		}
		if seed == -1 {
			break
		}
		queue = append(queue[:0], seed)
		visited[seed] = true
		for len(queue) > 0 && w < target {
			v := queue[0]
			queue = queue[1:]
			side[v] = 0
			w += g.VWeight[v]
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return side
}

// fmRefine improves a bisection with Fiduccia–Mattheyses style passes:
// repeatedly move the boundary vertex with the best gain subject to the
// balance constraint, keeping the best prefix of moves.
func fmRefine(g *Graph, side []int, frac float64, rng *rand.Rand, opt Options) {
	total := g.TotalVWeight()
	target0 := float64(total) * frac
	lo0 := int64(target0 * (1 - opt.ImbalanceTol))
	hi0 := int64(target0 * (1 + opt.ImbalanceTol))
	if hi0 >= total {
		hi0 = total - 1
	}
	if lo0 < 1 {
		lo0 = 1
	}

	var w0 int64
	for v := 0; v < g.N; v++ {
		if side[v] == 0 {
			w0 += g.VWeight[v]
		}
	}

	gain := func(v int) int64 {
		adj, ew := g.Neighbors(v)
		var ext, int_ int64
		for k, u := range adj {
			if side[u] == side[v] {
				int_ += ew[k]
			} else {
				ext += ew[k]
			}
		}
		return ext - int_
	}

	apply := func(v int) {
		if side[v] == 0 {
			w0 -= g.VWeight[v]
			side[v] = 1
		} else {
			w0 += g.VWeight[v]
			side[v] = 0
		}
	}
	balancedAfter := func(v int) bool {
		nw0 := w0
		if side[v] == 0 {
			nw0 -= g.VWeight[v]
		} else {
			nw0 += g.VWeight[v]
		}
		return nw0 >= lo0 && nw0 <= hi0
	}

	for pass := 0; pass < opt.RefinePasses; pass++ {
		// Collect current boundary vertices (those with a cross edge). Only
		// boundary vertices can have positive gain, so restricting the scan
		// keeps each pass O(boundary * degree).
		var boundary []int
		for v := 0; v < g.N; v++ {
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if side[u] != side[v] {
					boundary = append(boundary, v)
					break
				}
			}
		}
		if len(boundary) == 0 {
			return
		}
		// Greedy sweep: highest-gain first, allowing each vertex one move.
		sort.Slice(boundary, func(a, b int) bool {
			return gain(boundary[a]) > gain(boundary[b])
		})
		var improved int64
		for _, v := range boundary {
			gv := gain(v) // recompute: earlier moves change it
			if gv <= 0 {
				continue
			}
			if !balancedAfter(v) {
				continue
			}
			apply(v)
			improved += gv
		}
		if improved == 0 {
			return
		}
	}
}

// Block partitions n rows into nparts contiguous blocks of nearly equal row
// counts (the trivial 1-D distribution).
func Block(n, nparts int) []int {
	part := make([]int, n)
	for i := 0; i < n; i++ {
		part[i] = i * nparts / n
		if part[i] >= nparts {
			part[i] = nparts - 1
		}
	}
	return part
}

// Strip partitions by round-robin assignment (worst-case locality; used in
// tests to stress halo machinery).
func Strip(n, nparts int) []int {
	part := make([]int, n)
	for i := 0; i < n; i++ {
		part[i] = i % nparts
	}
	return part
}
