package dense

import (
	"errors"
	"fmt"
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

// cholesky is the row-major reference the packed kernel is held to: it
// overwrites the lower triangle of a (row-major n×n, only the lower triangle
// read) with L, column by column, each column's rows one after the other.
func cholesky(a []float64, n int) error {
	for j := 0; j < n; j++ {
		rj := a[j*n : j*n+j+1] // row j up to its diagonal
		d := rj[j]
		for _, x := range rj[:j] {
			d -= x * x
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		rj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			ri := a[i*n : i*n+j+1]
			s := ri[j]
			for k, x := range rj[:j] {
				s -= ri[k] * x
			}
			ri[j] = s * inv
		}
	}
	return nil
}

// solveSPDLast is the row-major reference of CholeskyPackedFrom +
// SolvePackedLast: A x = e_{n-1} by cholesky and back substitution on the
// row-major factor. a and b are overwritten.
func solveSPDLast(a []float64, n int, b []float64) error {
	if err := cholesky(a, n); err != nil {
		return err
	}
	clear(b[:n-1])
	b[n-1] = 1 / a[(n-1)*n+n-1]
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= a[k*n+i] * b[k]
		}
		b[i] = s / a[i*n+i]
	}
	return nil
}

// pack returns the lower triangle of the row-major n×n a, packed.
func pack(a []float64, n int) []float64 {
	l := make([]float64, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		l = append(l, a[i*n:i*n+i+1]...)
	}
	return l
}

// sameFactor fails unless the packed l and inv hold, bit for bit, the factor
// the reference left in the lower triangle of the row-major ref and its
// inverse pivots.
func sameFactor(t *testing.T, label string, l, inv, ref []float64, n int) {
	t.Helper()
	o := 0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(l[o+j]) != math.Float64bits(ref[i*n+j]) {
				t.Fatalf("%s: L[%d][%d] = %x, reference %x", label, i, j, math.Float64bits(l[o+j]), math.Float64bits(ref[i*n+j]))
			}
		}
		if math.Float64bits(inv[i]) != math.Float64bits(1/ref[i*n+i]) {
			t.Fatalf("%s: inv[%d] = %v, want 1/%v", label, i, inv[i], ref[i*n+i])
		}
		o += i + 1
	}
}

// sameErr fails unless the two errors are both nil or say the same thing.
func sameErr(t *testing.T, label string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: error %v, reference %v", label, got, want)
	}
	if got != nil && !errors.Is(got, ErrNotPositiveDefinite) {
		t.Fatalf("%s: error %v is not ErrNotPositiveDefinite", label, got)
	}
}

// signedZeros zeroes about k random off-diagonal pairs of a (symmetric), at
// positions where max(i, j) ≥ from, with either sign: sparse restrictions
// are mostly zeros.
func signedZeros(rng *rand.Rand, a []float64, n, from, k int) {
	for ; k > 0 && from < n; k-- {
		i, j := from+rng.Intn(n-from), rng.Intn(n)
		if i != j {
			z := 0.0
			if rng.Intn(2) == 0 {
				z = math.Copysign(0, -1)
			}
			a[i*n+j], a[j*n+i] = z, z
		}
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
	l := []float64{1, 0, -1} // diag(1, -1), packed
	err := CholeskyPackedFrom(l, make([]float64, 2), 0, 2)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	if err := SolveSPD([]float64{1, 0, 0, -1}, 2, make([]float64, 2)); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("SolveSPD err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyRejectsShortBuffer(t *testing.T) {
	for _, tc := range []struct {
		l, inv, p int
	}{{2, 2, 0}, {3, 1, 0}, {3, 2, -1}, {3, 2, 3}} {
		if err := CholeskyPackedFrom(make([]float64, tc.l), make([]float64, tc.inv), tc.p, 2); err == nil {
			t.Fatalf("n=2 with %d/%d buffers from row %d accepted", tc.l, tc.inv, tc.p)
		}
	}
	if err := SolveSPD(make([]float64, 3), 2, make([]float64, 2)); err == nil {
		t.Fatal("short SolveSPD buffer accepted")
	}
}

func TestCholeskyFactorReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 8
	orig := randSPD(rng, n)
	l := pack(orig, n)
	if err := CholeskyPackedFrom(l, make([]float64, n), 0, n); err != nil {
		t.Fatal(err)
	}
	// L·Lᵀ should equal the original lower triangle.
	row := func(i int) []float64 { return l[i*(i+1)/2 : i*(i+1)/2+i+1] }
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += row(i)[k] * row(j)[k]
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
// over many magnitudes, exact and signed zeros among them — the packed
// factor and SolvePackedLast return the bits of the row-major reference
// solveSPDLast, which returns those of SolveSPD for the right-hand side
// e_{n-1}; where a system is not definite, all three fail alike.
func TestSolveSPDLastBits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10000; trial++ {
		n := 1 + rng.Intn(40)
		a := randSPD(rng, n)
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		for i := range a {
			a[i] *= scale
		}
		signedZeros(rng, a, n, 0, rng.Intn(n*n))
		l, inv := pack(a, n), make([]float64, n)
		a2 := append([]float64(nil), a...)
		want := make([]float64, n)
		want[n-1] = 1
		ref := make([]float64, n)
		got := make([]float64, n)
		for i := range got {
			got[i] = rng.NormFloat64() // must not matter
			ref[i] = rng.NormFloat64()
		}
		errWant, errRef := SolveSPD(a, n, want), solveSPDLast(a2, n, ref)
		errGot := CholeskyPackedFrom(l, inv, 0, n)
		label := fmt.Sprintf("trial %d n %d", trial, n)
		sameErr(t, label, errRef, errWant)
		sameErr(t, label, errGot, errRef)
		if errGot != nil {
			continue // zeroing entries can cost definiteness
		}
		SolvePackedLast(l, n, got)
		for i := range want {
			if math.Float64bits(ref[i]) != math.Float64bits(want[i]) || math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s: x[%d] = %x, reference %x, SolveSPD %x", label, i, math.Float64bits(got[i]), math.Float64bits(ref[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestCholeskyPackedFromPrefix: for every order n from 1 to 64 and every
// prefix p ∈ [0, n], the factor of a matrix A is completed into that of a
// matrix B with A's leading p×p block and other rows after it — random,
// signed zeros among them, and now and then indefinite past row p. The
// rows [p, n) it computes, the inverse pivots, the solve and any error are
// the row-major reference's for B, bit for bit; at p = n nothing is factored
// and A's factor is B's.
func TestCholeskyPackedFromPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 1; n <= 64; n++ {
		a := randSPD(rng, n)
		signedZeros(rng, a, n, 0, n)
		la, inva := pack(a, n), make([]float64, n)
		if err := CholeskyPackedFrom(la, inva, 0, n); err != nil {
			t.Fatalf("n %d: %v", n, err)
		}
		for p := 0; p <= n; p++ {
			b := append([]float64(nil), a...)
			for i := p; i < n; i++ {
				for j := 0; j <= i; j++ {
					v := b[i*n+j] + 0.5*rng.NormFloat64()
					b[i*n+j], b[j*n+i] = v, v
				}
			}
			signedZeros(rng, b, n, p, n)
			if p < n && rng.Intn(4) == 0 {
				q := p + rng.Intn(n-p)
				b[q*n+q] = -b[q*n+q] * rng.Float64() // not definite at pivot ≥ p
			}
			l, inv := append([]float64(nil), la...), append([]float64(nil), inva...)
			copy(l[p*(p+1)/2:], pack(b, n)[p*(p+1)/2:])
			label := fmt.Sprintf("n %d p %d", n, p)
			ref := append([]float64(nil), b...)
			errRef := cholesky(ref, n)
			sameErr(t, label, CholeskyPackedFrom(l, inv, p, n), errRef)
			if errRef != nil {
				continue
			}
			sameFactor(t, label, l, inv, ref, n)
			x, want := make([]float64, n), make([]float64, n)
			SolvePackedLast(l, n, x)
			if err := solveSPDLast(append([]float64(nil), b...), n, want); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: x[%d] = %v, reference %v", label, i, x[i], want[i])
				}
			}
		}
	}
}

// fuzzMatrix fills a symmetric n×n matrix from raw, two bytes an entry,
// cycling: a small integer times a power of two, a signed zero when the
// integer is 0 and the second byte's bit 6 is set. A diagonal entry gets a
// bias that outweighs its row unless the second byte's top bit is set, so
// most draws are definite and some are not.
func fuzzMatrix(n int, raw []byte) []float64 {
	a := make([]float64, n*n)
	k := 0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var v, e byte
			if len(raw) > 0 {
				v, e = raw[k%len(raw)], raw[(k+1)%len(raw)]
				k += 2
			}
			x := math.Ldexp(float64(int8(v)), int(e%8)-4)
			if x == 0 && e&0x40 != 0 {
				x = math.Copysign(0, -1)
			}
			if i == j && e&0x80 == 0 {
				x = math.Abs(x) + float64(1024*n)
			}
			a[i*n+j], a[j*n+i] = x, x
		}
	}
	return a
}

// FuzzCholeskyPackedFrom: a matrix from the fuzzer's bytes, factored in two
// calls — its leading p×p block, then rows [p, n) on what the first left —
// against the row-major reference in one: the same factor, inverse pivots
// and solve bit for bit, or the same error at the same pivot.
func FuzzCholeskyPackedFrom(f *testing.F) {
	f.Add(uint8(5), uint8(2), []byte{1, 2, 0x80, 0x41, 7, 0xc3})
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(11), uint8(11), []byte{0, 0x40, 0xff, 0x07, 3})
	f.Add(uint8(9), uint8(4), []byte{0x90, 0x85, 0x10, 0x02})
	f.Fuzz(func(t *testing.T, size, prefix uint8, raw []byte) {
		n := 1 + int(size)%32
		p := int(prefix) % (n + 1)
		a := fuzzMatrix(n, raw)
		l, inv := pack(a, n), make([]float64, n)
		err := CholeskyPackedFrom(l, inv, 0, p)
		if err == nil {
			err = CholeskyPackedFrom(l, inv, p, n)
		}
		ref := append([]float64(nil), a...)
		errRef := cholesky(ref, n)
		label := fmt.Sprintf("n %d p %d", n, p)
		sameErr(t, label, err, errRef)
		if err != nil {
			return
		}
		sameFactor(t, label, l, inv, ref, n)
		x, want := make([]float64, n), make([]float64, n)
		SolvePackedLast(l, n, x)
		if err := solveSPDLast(append([]float64(nil), a...), n, want); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: x[%d] = %v, reference %v", label, i, x[i], want[i])
			}
		}
	})
}

// benchPacked times one FSAI row solve of order n that reuses the factor
// of the leading p rows: gather the rest, factor it, solve for e_{n-1}.
func benchPacked(b *testing.B, n, p int) {
	a := pack(randSPD(rand.New(rand.NewSource(5)), n), n)
	l, inv, x := append([]float64(nil), a...), make([]float64, n), make([]float64, n)
	if err := CholeskyPackedFrom(l, inv, 0, n); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(l[p*(p+1)/2:], a[p*(p+1)/2:])
		if err := CholeskyPackedFrom(l, inv, p, n); err != nil {
			b.Fatal(err)
		}
		SolvePackedLast(l, n, x)
	}
}

// A 20-entry row from scratch and with all but its last row shared; a
// 4-entry row, as plain FSAI on a 3-D Laplacian has, from scratch.
func BenchmarkSolvePacked20(b *testing.B)         { benchPacked(b, 20, 0) }
func BenchmarkSolvePacked20Prefix19(b *testing.B) { benchPacked(b, 20, 19) }
func BenchmarkSolvePacked4(b *testing.B)          { benchPacked(b, 4, 0) }
