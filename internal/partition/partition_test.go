package partition

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fsaicomm/internal/sparse"
)

// Validate checks that part is a valid assignment into [0, nparts).
func Validate(g *Graph, part []int, nparts int) error {
	if len(part) != g.N {
		return fmt.Errorf("partition: assignment length %d, want %d", len(part), g.N)
	}
	for v, p := range part {
		if p < 0 || p >= nparts {
			return fmt.Errorf("partition: vertex %d assigned to part %d outside [0,%d)", v, p, nparts)
		}
	}
	return nil
}

// grid2d builds the 5-point Laplacian pattern on an nx-by-ny grid.
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

func TestGraphFromMatrix(t *testing.T) {
	a := grid2d(4, 4)
	g := GraphFromMatrix(a)
	if g.N != 16 {
		t.Fatalf("N = %d, want 16", g.N)
	}
	// 2*nx*ny - nx - ny undirected edges for a grid; each stored twice.
	wantEdges := 2*16 - 4 - 4
	if len(g.Adj) != 2*wantEdges {
		t.Fatalf("adj size = %d, want %d", len(g.Adj), 2*wantEdges)
	}
	// Corner vertex has degree 2, interior 4.
	adj, _ := g.Neighbors(0)
	if len(adj) != 2 {
		t.Fatalf("corner degree = %d, want 2", len(adj))
	}
	adj, _ = g.Neighbors(5)
	if len(adj) != 4 {
		t.Fatalf("interior degree = %d, want 4", len(adj))
	}
}

func TestGraphFromMatrixRejectsRectangular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rectangular matrix")
		}
	}()
	GraphFromMatrix(sparse.NewCSR(3, 4, 0))
}

func TestBlockPartition(t *testing.T) {
	part := Block(10, 3)
	if err := Validate(&Graph{N: 10}, part, 3); err != nil {
		t.Fatal(err)
	}
	// Contiguous and non-decreasing.
	for i := 1; i < 10; i++ {
		if part[i] < part[i-1] {
			t.Fatalf("block partition not monotone: %v", part)
		}
	}
	// All parts used.
	seen := map[int]bool{}
	for _, p := range part {
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Fatalf("parts used = %d, want 3", len(seen))
	}
}

func TestStripPartition(t *testing.T) {
	part := Strip(7, 3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if part[i] != want[i] {
			t.Fatalf("part = %v, want %v", part, want)
		}
	}
}

func TestMultilevelBalancedAndBetterThanStrip(t *testing.T) {
	a := grid2d(24, 24)
	g := GraphFromMatrix(a)
	for _, nparts := range []int{2, 4, 8} {
		part, err := Multilevel(g, nparts, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g, part, nparts); err != nil {
			t.Fatal(err)
		}
		imb := ImbalanceRatio(g, part, nparts)
		if imb > 1.25 {
			t.Errorf("nparts=%d: imbalance %.3f > 1.25", nparts, imb)
		}
		cutML := EdgeCut(g, part)
		cutStrip := EdgeCut(g, Strip(g.N, nparts))
		if cutML >= cutStrip {
			t.Errorf("nparts=%d: multilevel cut %d not better than strip cut %d", nparts, cutML, cutStrip)
		}
		// A 24x24 grid bisection has an ideal cut of ~24 per boundary; allow
		// generous slack but require locality.
		if nparts == 2 && cutML > 4*24 {
			t.Errorf("bisection cut %d too large", cutML)
		}
	}
}

func TestMultilevelSinglePart(t *testing.T) {
	g := GraphFromMatrix(grid2d(5, 5))
	part, err := Multilevel(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatalf("nparts=1 assigned part %d", p)
		}
	}
}

func TestMultilevelBadNParts(t *testing.T) {
	g := GraphFromMatrix(grid2d(3, 3))
	if _, err := Multilevel(g, 0, Options{}); err == nil {
		t.Fatal("nparts=0 accepted")
	}
}

func TestMultilevelDisconnectedGraph(t *testing.T) {
	// Two disjoint grids in one matrix.
	n := 32
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
	}
	for i := 0; i < 15; i++ {
		c.AddSym(i, i+1, -1)
	}
	for i := 16; i < 31; i++ {
		c.AddSym(i, i+1, -1)
	}
	g := GraphFromMatrix(c.ToCSR())
	part, err := Multilevel(g, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, part, 2); err != nil {
		t.Fatal(err)
	}
	if imb := ImbalanceRatio(g, part, 2); imb > 1.3 {
		t.Fatalf("imbalance %.3f on disconnected graph", imb)
	}
}

func TestEdgeCutManual(t *testing.T) {
	// Path 0-1-2-3 split {0,1},{2,3}: cut = 1.
	c := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 2)
	}
	for i := 0; i < 3; i++ {
		c.AddSym(i, i+1, -1)
	}
	g := GraphFromMatrix(c.ToCSR())
	if cut := EdgeCut(g, []int{0, 0, 1, 1}); cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
	if cut := EdgeCut(g, []int{0, 1, 0, 1}); cut != 3 {
		t.Fatalf("alternating cut = %d, want 3", cut)
	}
}

func TestImbalanceRatio(t *testing.T) {
	g := &Graph{N: 4, VWeight: []int64{1, 1, 1, 3}}
	if imb := ImbalanceRatio(g, []int{0, 0, 1, 1}, 2); imb != (4.0 / 3.0) {
		t.Fatalf("imb = %v, want 4/3", imb)
	}
	if imb := ImbalanceRatio(g, []int{0, 0, 0, 1}, 2); imb != 1 {
		t.Fatalf("balanced imb = %v, want 1", imb)
	}
}

// Property: multilevel always produces a valid, reasonably balanced
// partition that uses every part on connected grid graphs.
func TestQuickMultilevelValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 4+rng.Intn(12), 4+rng.Intn(12)
		nparts := 2 + rng.Intn(4)
		g := GraphFromMatrix(grid2d(nx, ny))
		part, err := Multilevel(g, nparts, Options{Seed: seed})
		if err != nil || Validate(g, part, nparts) != nil {
			return false
		}
		w := PartWeights(g, part, nparts)
		for _, x := range w {
			if x == 0 {
				return false
			}
		}
		return ImbalanceRatio(g, part, nparts) < 1.6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := GraphFromMatrix(grid2d(10, 10))
	p1, _ := Multilevel(g, 4, Options{Seed: 42})
	p2, _ := Multilevel(g, 4, Options{Seed: 42})
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("partition not deterministic at vertex %d", i)
		}
	}
}

func TestCommVolume(t *testing.T) {
	// Path 0-1-2-3 split {0,1},{2,3}: vertices 1 and 2 each cross once.
	c := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 2)
	}
	for i := 0; i < 3; i++ {
		c.AddSym(i, i+1, -1)
	}
	g := GraphFromMatrix(c.ToCSR())
	if vol := CommVolume(g, []int{0, 0, 1, 1}, 2); vol != 2 {
		t.Fatalf("volume = %d, want 2", vol)
	}
	// One part: no communication.
	if vol := CommVolume(g, []int{0, 0, 0, 0}, 1); vol != 0 {
		t.Fatalf("single-part volume = %d", vol)
	}
}

func TestCommVolumeMultilevelBeatsStrip(t *testing.T) {
	g := GraphFromMatrix(grid2d(20, 20))
	part, err := Multilevel(g, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if CommVolume(g, part, 4) >= CommVolume(g, Strip(g.N, 4), 4) {
		t.Fatal("multilevel volume not below strip")
	}
}
