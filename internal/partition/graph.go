// Package partition implements graph partitioning for distributing sparse
// matrix rows across processes. It substitutes METIS in the paper's pipeline
// with a multilevel recursive-bisection partitioner (heavy-edge-matching
// coarsening, greedy graph-growing initial bisection, boundary
// Kernighan–Lin/Fiduccia–Mattheyses refinement), plus trivial block and strip
// partitioners used for tests and debugging.
package partition

import (
	"fmt"

	"fsaicomm/internal/sparse"
)

// Graph is an undirected weighted graph in adjacency (CSR-like) form.
// Self-loops are not stored. For each edge {u,v} both directions appear.
type Graph struct {
	N       int
	Ptr     []int
	Adj     []int
	EWeight []int64 // per stored direction; symmetric
	VWeight []int64 // per vertex
}

// GraphFromMatrix builds the adjacency graph of a square sparse matrix: an
// edge {i,j} for every off-diagonal stored position (i,j) or (j,i). Edge
// weight is 1 per coupling direction present; vertex weight is the number of
// stored entries in the row (so balancing vertex weight balances nnz, which
// is what the paper's workload rule operates on).
//
// Adjacency order is part of the contract, because the partitioner's
// tie-breaking — and through it every partition, permutation and iteration
// count downstream — depends on it: the stored positions are visited row by
// row, an edge is created at the first position that mentions it, and each
// new edge is appended to both endpoints' lists. Position (i,j) is the first
// mention of {i,j} exactly when j > i, or j < i and (j,i) is not stored, so
// one sorted-row lookup per sub-diagonal position decides it.
func GraphFromMatrix(a *sparse.CSR) *Graph {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("partition: matrix %dx%d not square", a.Rows, a.Cols))
	}
	n := a.Rows
	// visit calls edge(u, v), u < v, for every edge in creation order.
	visit := func(edge func(u, v int)) {
		for i := 0; i < n; i++ {
			cols, _ := a.Row(i)
			for _, j := range cols {
				switch {
				case j > i:
					edge(i, j)
				case j < i && !a.Has(j, i):
					edge(j, i)
				}
			}
		}
	}
	g := &Graph{N: n, Ptr: make([]int, n+1), VWeight: make([]int64, n)}
	visit(func(u, v int) {
		g.Ptr[u+1]++
		g.Ptr[v+1]++
	})
	for i := 0; i < n; i++ {
		g.Ptr[i+1] += g.Ptr[i]
		g.VWeight[i] = int64(a.RowNNZ(i))
		if g.VWeight[i] == 0 {
			g.VWeight[i] = 1
		}
	}
	g.Adj = make([]int, g.Ptr[n])
	g.EWeight = make([]int64, g.Ptr[n])
	for k := range g.EWeight {
		g.EWeight[k] = 1
	}
	next := append([]int(nil), g.Ptr[:n]...)
	visit(func(u, v int) {
		g.Adj[next[u]] = v
		next[u]++
		g.Adj[next[v]] = u
		next[v]++
	})
	return g
}

// Neighbors returns the adjacency list of vertex v as shared slices.
func (g *Graph) Neighbors(v int) ([]int, []int64) {
	return g.Adj[g.Ptr[v]:g.Ptr[v+1]], g.EWeight[g.Ptr[v]:g.Ptr[v+1]]
}

// TotalVWeight returns the sum of all vertex weights.
func (g *Graph) TotalVWeight() int64 {
	var s int64
	for _, w := range g.VWeight {
		s += w
	}
	return s
}

// EdgeCut returns the total weight of edges crossing parts under the given
// assignment (each undirected edge counted once).
func EdgeCut(g *Graph, part []int) int64 {
	var cut int64
	for u := 0; u < g.N; u++ {
		adj, ew := g.Neighbors(u)
		for k, v := range adj {
			if u < v && part[u] != part[v] {
				cut += ew[k]
			}
		}
	}
	return cut
}

// PartWeights returns the summed vertex weight per part.
func PartWeights(g *Graph, part []int, nparts int) []int64 {
	w := make([]int64, nparts)
	for v := 0; v < g.N; v++ {
		w[part[v]] += g.VWeight[v]
	}
	return w
}

// ImbalanceRatio returns max part weight / average part weight (≥ 1;
// 1 = perfectly balanced). Empty parts count as weight 0.
func ImbalanceRatio(g *Graph, part []int, nparts int) float64 {
	w := PartWeights(g, part, nparts)
	var max, sum int64
	for _, x := range w {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	avg := float64(sum) / float64(nparts)
	return float64(max) / avg
}

// CommVolume returns the total number of halo unknowns a row distribution
// induces: for each vertex, the number of *other* parts among its
// neighbours (each such part must receive that vertex's value every halo
// update). This is the quantity a halo exchange actually moves, which edge
// cut only approximates.
func CommVolume(g *Graph, part []int, nparts int) int64 {
	var vol int64
	seen := make([]int, nparts)
	for i := range seen {
		seen[i] = -1
	}
	for v := 0; v < g.N; v++ {
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if part[u] != part[v] && seen[part[u]] != v {
				seen[part[u]] = v
				vol++
			}
		}
	}
	return vol
}
