package partition

import (
	"math/rand"
	"slices"
	"testing"

	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

// graphFromMatrixMap is GraphFromMatrix as it was before the set-up rewrite:
// a map of seen edges and an edge list in creation order. Kept as the
// reference for the adjacency order, which partitions depend on.
func graphFromMatrixMap(a *sparse.CSR) *Graph {
	n := a.Rows
	deg := make([]int, n)
	type edge struct{ u, v int }
	seen := make(map[edge]bool, a.NNZ())
	var edges []edge
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if i == j {
				continue
			}
			u, v := i, j
			if u > v {
				u, v = v, u
			}
			e := edge{u, v}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
				deg[u]++
				deg[v]++
			}
		}
	}
	g := &Graph{
		N:       n,
		Ptr:     make([]int, n+1),
		Adj:     make([]int, 2*len(edges)),
		EWeight: make([]int64, 2*len(edges)),
		VWeight: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		g.Ptr[i+1] = g.Ptr[i] + deg[i]
		g.VWeight[i] = int64(a.RowNNZ(i))
		if g.VWeight[i] == 0 {
			g.VWeight[i] = 1
		}
	}
	next := append([]int(nil), g.Ptr[:n]...)
	for _, e := range edges {
		g.Adj[next[e.u]] = e.v
		g.EWeight[next[e.u]] = 1
		next[e.u]++
		g.Adj[next[e.v]] = e.u
		g.EWeight[next[e.v]] = 1
		next[e.v]++
	}
	return g
}

func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.N != want.N || !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Adj, want.Adj) ||
		!slices.Equal(got.EWeight, want.EWeight) || !slices.Equal(got.VWeight, want.VWeight) {
		t.Fatalf("%s: graph differs from the map-based reference", name)
	}
}

// TestGraphFromMatrixKeepsAdjacencyOrder: Ptr, Adj and the weights are
// identical to the map-based builder's on the symmetric and nonsymmetric
// catalog matrices, and on random one-sided patterns where most couplings
// are stored in one direction only.
func TestGraphFromMatrixKeepsAdjacencyOrder(t *testing.T) {
	for _, spec := range append(testsets.QuickSet(), testsets.Nonsym()...) {
		a := spec.Generate()
		sameGraph(t, spec.Name, GraphFromMatrix(a), graphFromMatrixMap(a))
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		c := sparse.NewCOO(n, n)
		for k := rng.Intn(4 * n); k > 0; k-- {
			c.Add(rng.Intn(n), rng.Intn(n), 1)
		}
		a := c.ToCSR()
		sameGraph(t, "random", GraphFromMatrix(a), graphFromMatrixMap(a))
	}
}

// coarsenMap is coarsen as it was before the set-up rewrite: one map per
// coarse vertex to aggregate the edges to its coarse neighbours.
func coarsenMap(g *Graph, rng *rand.Rand) (*Graph, []int) {
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
	coarse := &Graph{N: nc, Ptr: make([]int, nc+1), VWeight: make([]int64, nc)}
	for v := 0; v < g.N; v++ {
		coarse.VWeight[cmap[v]] += g.VWeight[v]
	}
	members := make([][2]int, nc)
	count := make([]int, nc)
	for v := 0; v < g.N; v++ {
		c := cmap[v]
		members[c][count[c]] = v
		count[c]++
	}
	for c := 0; c < nc; c++ {
		agg := make(map[int]int64)
		for m := 0; m < count[c]; m++ {
			adj, ew := g.Neighbors(members[c][m])
			for k, u := range adj {
				if cu := cmap[u]; cu != c {
					agg[cu] += ew[k]
				}
			}
		}
		keys := make([]int, 0, len(agg))
		for u := range agg {
			keys = append(keys, u)
		}
		slices.Sort(keys)
		for _, u := range keys {
			coarse.Adj = append(coarse.Adj, u)
			coarse.EWeight = append(coarse.EWeight, agg[u])
		}
		coarse.Ptr[c+1] = len(coarse.Adj)
	}
	return coarse, cmap
}

// TestCoarsenMatchesMapReference walks a coarsening hierarchy with the
// map-free coarsen and the map-based reference side by side, from equal
// random streams: same matching, same coarse graphs, level after level.
func TestCoarsenMatchesMapReference(t *testing.T) {
	for _, spec := range append(testsets.QuickSet()[:3], testsets.Nonsym()[0]) {
		g := GraphFromMatrix(spec.Generate())
		for level := 0; level < 6 && g.N > 8; level++ {
			got, gotMap := coarsen(g, rand.New(rand.NewSource(int64(level))))
			want, wantMap := coarsenMap(g, rand.New(rand.NewSource(int64(level))))
			if !slices.Equal(gotMap, wantMap) {
				t.Fatalf("%s level %d: fine-to-coarse map differs", spec.Name, level)
			}
			sameGraph(t, spec.Name, got, want)
			g = got
		}
	}
}
