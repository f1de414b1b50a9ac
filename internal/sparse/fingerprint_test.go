package sparse_test

import (
	"math"
	"math/rand"
	"testing"

	"fsaicomm/internal/matgen"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

func fpTestMatrix(n int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	return testsets.RandomSPD(rng, n, testsets.SPDOptions{
		Diag: 8, Chain: -1, Couplings: 3 * n,
		Off: func(r *rand.Rand) float64 { return 0.5 * r.Float64() },
	})
}

func TestFingerprintStableAcrossClones(t *testing.T) {
	a := fpTestMatrix(200, 42)
	fp := a.Fingerprint()
	if len(fp) != 32 {
		t.Fatalf("fingerprint length %d, want 32 hex chars", len(fp))
	}
	if got := a.Clone().Fingerprint(); got != fp {
		t.Fatalf("clone fingerprint %s != original %s", got, fp)
	}
	// Extra slice capacity must not matter.
	b := a.Clone()
	b.ColIdx = append(make([]int, 0, 4*b.NNZ()), b.ColIdx...)
	b.Val = append(make([]float64, 0, 4*b.NNZ()), b.Val...)
	if got := b.Fingerprint(); got != fp {
		t.Fatalf("capacity-padded fingerprint %s != original %s", got, fp)
	}
}

func TestFingerprintDistinguishesContent(t *testing.T) {
	a := fpTestMatrix(120, 1)
	fp := a.Fingerprint()
	// A changed value moves the fingerprint.
	v := a.Clone()
	v.Val[len(v.Val)/2] *= 1.5
	if v.Fingerprint() == fp {
		t.Fatal("value change did not change the fingerprint")
	}
	// A changed structure (different matrix entirely) moves it too.
	s := fpTestMatrix(120, 2)
	if s.Fingerprint() == fp {
		t.Fatal("different matrix collides with original fingerprint")
	}
	// Shape is part of the identity even for an empty pattern.
	e1 := sparse.NewCSR(3, 3, 0)
	e2 := sparse.NewCSR(4, 4, 0)
	e2.RowPtr = make([]int, 5)
	if e1.Fingerprint() == e2.Fingerprint() {
		t.Fatal("empty 3x3 and 4x4 share a fingerprint")
	}
}

func TestFingerprintQuantizesNoise(t *testing.T) {
	a := fpTestMatrix(150, 7)
	fp := a.Fingerprint()
	// Sub-quantum noise: flipping mantissa bits below the quantization mask
	// must not change the fingerprint (assembly-order rounding noise).
	n := a.Clone()
	for i, v := range n.Val {
		n.Val[i] = math.Float64frombits(math.Float64bits(v) ^ 0x3)
	}
	if got := n.Fingerprint(); got != fp {
		t.Fatalf("sub-quantum noise changed fingerprint: %s != %s", got, fp)
	}
}

// TestFingerprintGolden pins the digest of the benchmark system, of the
// nonsymmetric catalog entry and of a tiny grid to the values the
// eight-bytes-per-Write loop produced (commit 1593699), so that feeding the
// hasher in blocks cannot move a fingerprint a client already holds.
func TestFingerprintGolden(t *testing.T) {
	skew, err := testsets.ByName("convdiff-skew-sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
		want string
	}{
		{"poisson37", matgen.Poisson3D(37, 37, 37), "2cd0392545127268289ab0090fdddd37"},
		{"convdiff-skew-sim", skew.Generate(), "41af5e51e0f0383c95e983d2b2e99df0"},
		{"poisson3", matgen.Poisson3D(3, 3, 3), "a6dc9e396db3ebcbcbc0fd356572b7de"},
	} {
		if got := tc.a.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestPatternDigest: the second return of FingerprintWithPattern names the
// shape and structure alone — other values, same digest; another structure
// or shape, another digest — and the first is Fingerprint.
func TestPatternDigest(t *testing.T) {
	a := fpTestMatrix(150, 3)
	fp, pat := a.FingerprintWithPattern()
	if fp != a.Fingerprint() || len(pat) != 32 || pat == fp {
		t.Fatalf("content %s (Fingerprint %s), pattern %s", fp, a.Fingerprint(), pat)
	}
	v := a.Clone()
	for i := range v.Val {
		v.Val[i] *= 1.5
	}
	if fp2, pat2 := v.FingerprintWithPattern(); fp2 == fp || pat2 != pat {
		t.Fatalf("other values: content %s → %s, pattern %s → %s", fp, fp2, pat, pat2)
	}
	if _, pat2 := fpTestMatrix(150, 4).FingerprintWithPattern(); pat2 == pat {
		t.Fatal("another structure shares the pattern digest")
	}
	// The shape counts even where the structure arrays agree: a 3×3 and a
	// 3×4 matrix with the same rows.
	b := matgen.Poisson3D(3, 1, 1)
	wide := b.Clone()
	wide.Cols++
	_, narrowPat := b.FingerprintWithPattern()
	if _, widePat := wide.FingerprintWithPattern(); widePat == narrowPat {
		t.Fatal("another shape shares the pattern digest")
	}
}
