package dense

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randSPD builds a random SPD matrix as B·Bᵀ + n·I, row-major.
func randSPD(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n*n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b[i*n+k] * b[j*n+k]
			}
			a[i*n+j] = s
		}
		a[i*n+i] += float64(n)
	}
	return a
}

// MulSym computes y = A x for a symmetric A stored row-major (lower triangle
// read).
func MulSym(a []float64, n int, x, y []float64) {
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j <= i; j++ {
			s += a[i*n+j] * x[j]
		}
		for j := i + 1; j < n; j++ {
			s += a[j*n+i] * x[j]
		}
		y[i] = s
	}
}

func TestCholeskySolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(30)
		a := randSPD(rng, n)
		orig := append([]float64(nil), a...)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		MulSym(orig, n, x, b)
		if err := SolveSPD(a, n, b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, b[i], x[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := []float64{1, 0, 0, -1} // diag(1, -1)
	err := Cholesky(a, 2)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyRejectsShortBuffer(t *testing.T) {
	if err := Cholesky(make([]float64, 3), 2); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestCholeskyFactorReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 8
	a := randSPD(rng, n)
	orig := append([]float64(nil), a...)
	if err := Cholesky(a, n); err != nil {
		t.Fatal(err)
	}
	// L·Lᵀ should equal the original lower triangle.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += a[i*n+k] * a[j*n+k]
			}
			if math.Abs(s-orig[i*n+j]) > 1e-9*(1+math.Abs(orig[i*n+j])) {
				t.Fatalf("LLᵀ(%d,%d) = %v, want %v", i, j, s, orig[i*n+j])
			}
		}
	}
}

func TestSolveN1(t *testing.T) {
	a := []float64{4}
	b := []float64{8}
	if err := SolveSPD(a, 1, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 2 {
		t.Fatalf("x = %v, want 2", b[0])
	}
}

// TestSolveSPDLastBits: on 10⁴ random SPD systems — sizes 1 to 40, entries
// over many magnitudes, exact and signed zeros among them — SolveSPDLast
// returns the bits SolveSPD returns for the right-hand side e_{n-1}.
func TestSolveSPDLastBits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10000; trial++ {
		n := 1 + rng.Intn(40)
		a := randSPD(rng, n)
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		for i := range a {
			a[i] *= scale
		}
		// Sparse restrictions are mostly zeros, of either sign.
		for k := rng.Intn(n * n); k > 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				z := 0.0
				if rng.Intn(2) == 0 {
					z = math.Copysign(0, -1)
				}
				a[i*n+j], a[j*n+i] = z, z
			}
		}
		a2 := append([]float64(nil), a...)
		want := make([]float64, n)
		want[n-1] = 1
		got := make([]float64, n)
		for i := range got {
			got[i] = rng.NormFloat64() // must not matter
		}
		errWant, errGot := SolveSPD(a, n, want), SolveSPDLast(a2, n, got)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("trial %d: SolveSPD says %v, SolveSPDLast %v", trial, errWant, errGot)
		}
		if errWant != nil {
			continue // zeroing entries can cost definiteness
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d n %d: x[%d] = %x, SolveSPD gives %x", trial, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

func benchSolve(b *testing.B, n int, solve func(a []float64, n int, rhs []float64) error) {
	a := randSPD(rand.New(rand.NewSource(5)), n)
	work := make([]float64, n*n)
	rhs := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, a)
		clear(rhs)
		rhs[n-1] = 1
		if err := solve(work, n, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// The FSAI row solve on a 20-entry row, right-hand side e_{n-1}, by the
// general solver and by the one that knows the right-hand side.
func BenchmarkSolveSPD(b *testing.B)     { benchSolve(b, 20, SolveSPD) }
func BenchmarkSolveSPDLast(b *testing.B) { benchSolve(b, 20, SolveSPDLast) }
