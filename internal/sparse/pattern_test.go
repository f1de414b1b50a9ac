package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Validate checks structural invariants of the pattern.
func (p *Pattern) Validate() error {
	m := &CSR{Rows: p.Rows, Cols: p.Cols, RowPtr: p.RowPtr, ColIdx: p.ColIdx,
		Val: make([]float64, len(p.ColIdx))}
	return m.Validate()
}

// union is the position-wise union of two patterns of equal shape: their
// concatenated row sets, which PatternFromRows sorts and deduplicates.
func union(p, q *Pattern) *Pattern {
	rows := make([][]int, p.Rows)
	for i := range rows {
		rows[i] = append(append([]int(nil), p.Row(i)...), q.Row(i)...)
	}
	return PatternFromRows(p.Rows, p.Cols, rows)
}

func TestPatternOfAndHas(t *testing.T) {
	p := PatternOf(tri4())
	if p.NNZ() != 10 {
		t.Fatalf("NNZ = %d, want 10", p.NNZ())
	}
	if !p.Has(1, 2) || p.Has(0, 3) {
		t.Fatalf("pattern membership wrong")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("pattern invalid: %v", err)
	}
}

func TestPatternFromRowsSortsAndDedups(t *testing.T) {
	p := PatternFromRows(2, 5, [][]int{{3, 1, 3, 0}, {}})
	if got := p.Row(0); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("row 0 = %v, want [0 1 3]", got)
	}
	if len(p.Row(1)) != 0 {
		t.Fatalf("row 1 should be empty")
	}
}

func TestPatternLowerTriangle(t *testing.T) {
	p := PatternOf(tri4()).LowerTriangle()
	for i := 0; i < 4; i++ {
		for _, c := range p.Row(i) {
			if c > i {
				t.Fatalf("lower pattern has (%d,%d)", i, c)
			}
		}
	}
	if p.NNZ() != 7 {
		t.Fatalf("NNZ = %d, want 7", p.NNZ())
	}
}

func TestPatternWithDiagonal(t *testing.T) {
	p := PatternFromRows(3, 3, [][]int{{1}, {0, 1}, {}})
	d := p.WithDiagonal()
	for i := 0; i < 3; i++ {
		if !d.Has(i, i) {
			t.Fatalf("diagonal (%d,%d) missing", i, i)
		}
	}
	if d.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5", d.NNZ())
	}
	// Idempotent.
	if !d.WithDiagonal().Equal(d) {
		t.Fatalf("WithDiagonal not idempotent")
	}
}

func TestPatternUnionContains(t *testing.T) {
	a := PatternFromRows(3, 3, [][]int{{0, 2}, {1}, {}})
	b := PatternFromRows(3, 3, [][]int{{1}, {1, 2}, {0}})
	u := union(a, b)
	if !u.Contains(a) || !u.Contains(b) {
		t.Fatalf("union does not contain operands")
	}
	if u.NNZ() != 6 {
		t.Fatalf("union NNZ = %d, want 6", u.NNZ())
	}
	if a.Contains(b) {
		t.Fatalf("Contains false positive")
	}
}

func TestThresholdKeepsDiagonalAndLargeEntries(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 4)
	c.Add(1, 1, 4)
	c.Add(2, 2, 4)
	c.AddSym(0, 1, -2)   // |.|=2 vs tau*4
	c.AddSym(1, 2, -0.1) // small
	a := c.ToCSR()
	th := Threshold(a, 0.25) // keep |a_ij| >= 1
	if !th.Has(0, 1) || !th.Has(1, 0) {
		t.Fatalf("large off-diagonal dropped")
	}
	if th.Has(1, 2) || th.Has(2, 1) {
		t.Fatalf("small off-diagonal kept")
	}
	for i := 0; i < 3; i++ {
		if !th.Has(i, i) {
			t.Fatalf("diagonal dropped at %d", i)
		}
	}
	// tau = 0 keeps everything.
	if Threshold(a, 0).NNZ() != a.NNZ() {
		t.Fatalf("tau=0 dropped entries")
	}
}

func TestPatternPowerLevelOne(t *testing.T) {
	a := tri4()
	p := PatternPowerWorkers(a, 1, 0)
	if !p.Equal(PatternOf(a)) {
		t.Fatalf("level-1 power should equal the matrix pattern (diag already present)")
	}
}

func TestPatternPowerLevelTwoTridiagonal(t *testing.T) {
	// The square of a tridiagonal pattern is pentadiagonal.
	a := tri4()
	p := PatternPowerWorkers(a, 2, 0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := abs(i-j) <= 2
			if p.Has(i, j) != want {
				t.Fatalf("(%d,%d): has=%v want=%v", i, j, p.Has(i, j), want)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPatternPowerBadLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for level 0")
		}
	}()
	PatternPowerWorkers(tri4(), 0, 0)
}

// Property: pattern power is monotone in level (each level contains the
// previous one) for patterns with full diagonal.
func TestQuickPatternPowerMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		c := NewCOO(n, n)
		for i := 0; i < n; i++ {
			c.Add(i, i, 1)
		}
		for k := 0; k < n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				c.AddSym(i, j, 1)
			}
		}
		a := c.ToCSR()
		p1 := PatternPowerWorkers(a, 1, 0)
		p2 := PatternPowerWorkers(a, 2, 0)
		p3 := PatternPowerWorkers(a, 3, 0)
		return p2.Contains(p1) && p3.Contains(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: union is commutative and idempotent.
func TestQuickUnionLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		mk := func() *Pattern {
			rowSets := make([][]int, n)
			for i := range rowSets {
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.4 {
						rowSets[i] = append(rowSets[i], j)
					}
				}
			}
			return PatternFromRows(n, n, rowSets)
		}
		a, b := mk(), mk()
		ab, ba := union(a, b), union(b, a)
		return ab.Equal(ba) && union(a, a).Equal(a) && ab.Contains(a) && ab.Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
