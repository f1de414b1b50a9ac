package vecops

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestDotAndFlops(t *testing.T) {
	var fc FlopCounter
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y, &fc); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
	if fc.Count() != 6 {
		t.Fatalf("flops = %d, want 6", fc.Count())
	}
	fc.Reset()
	if fc.Count() != 0 {
		t.Fatalf("Reset did not zero")
	}
}

func TestNilCounterSafe(t *testing.T) {
	var fc *FlopCounter
	fc.Add(10)
	if fc.Count() != 0 {
		t.Fatalf("nil counter count = %d", fc.Count())
	}
	fc.Reset()
	_ = Dot([]float64{1}, []float64{1}, nil)
}

func TestAxpyXpayScale(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, -1}, y, nil)
	if y[0] != 7 || y[1] != -1 {
		t.Fatalf("Axpy = %v", y)
	}
	d := []float64{1, 2}
	Xpay([]float64{10, 10}, 0.5, d, nil)
	if d[0] != 10.5 || d[1] != 11 {
		t.Fatalf("Xpay = %v", d)
	}
	Xpay([]float64{0, 0}, -1, d, nil) // x = 0 scales y by a
	if d[0] != -10.5 || d[1] != -11 {
		t.Fatalf("Xpay as a scale = %v", d)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x, nil); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	Fill(x, 2)
	if x[0] != 2 || x[1] != 2 {
		t.Fatalf("Fill = %v", x)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"dot":  func() { Dot([]float64{1}, []float64{1, 2}, nil) },
		"axpy": func() { Axpy(1, []float64{1}, []float64{1, 2}, nil) },
		"xpay": func() { Xpay([]float64{1}, 1, []float64{1, 2}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFlopCounterConcurrent(t *testing.T) {
	var fc FlopCounter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				fc.Add(1)
			}
		}()
	}
	wg.Wait()
	if fc.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", fc.Count())
	}
}

// Property: Dot is symmetric and linear in the first argument.
func TestQuickDotLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i], y[i], z[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		a := rng.NormFloat64()
		// (a·x + z)ᵀ y == a·(xᵀy) + zᵀy
		xz := make([]float64, n)
		for i := range xz {
			xz[i] = a*x[i] + z[i]
		}
		lhs := Dot(xz, y, nil)
		rhs := a*Dot(x, y, nil) + Dot(z, y, nil)
		scale := math.Abs(lhs) + math.Abs(rhs) + 1
		return math.Abs(lhs-rhs) < 1e-10*scale && math.Abs(Dot(x, y, nil)-Dot(y, x, nil)) < 1e-12*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDot2MatchesTwoDots(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := make([]float64, 57)
	y := make([]float64, 57)
	z := make([]float64, 57)
	for i := range x {
		x[i], y[i], z[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	var fc FlopCounter
	xy, zy := Dot2(x, y, z, &fc)
	// Bit-identical to the unfused reference: same accumulation order.
	if xy != Dot(x, y, nil) || zy != Dot(z, y, nil) {
		t.Fatalf("Dot2 = (%v, %v), want (%v, %v)", xy, zy, Dot(x, y, nil), Dot(z, y, nil))
	}
	if fc.Count() != 4*57 {
		t.Fatalf("flops = %d, want %d", fc.Count(), 4*57)
	}
}

func TestFusedCGUpdateMatchesUnfused(t *testing.T) {
	const n = 43
	rng := rand.New(rand.NewSource(22))
	mk := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	u, w, p, s, x, r := mk(), mk(), mk(), mk(), mk(), mk()
	alpha, beta := 0.37, -0.81
	// Unfused reference on copies.
	cp := func(v []float64) []float64 { return append([]float64(nil), v...) }
	p2, s2, x2, r2 := cp(p), cp(s), cp(x), cp(r)
	Xpay(u, beta, p2, nil)
	Xpay(w, beta, s2, nil)
	Axpy(alpha, p2, x2, nil)
	Axpy(-alpha, s2, r2, nil)

	var fc FlopCounter
	rr := FusedCGUpdate(alpha, beta, u, w, p, s, x, r, &fc)
	for i := 0; i < n; i++ {
		if p[i] != p2[i] || s[i] != s2[i] || x[i] != x2[i] || r[i] != r2[i] {
			t.Fatalf("fused update diverges at %d: p %v/%v s %v/%v x %v/%v r %v/%v",
				i, p[i], p2[i], s[i], s2[i], x[i], x2[i], r[i], r2[i])
		}
	}
	if want := Dot(r2, r2, nil); rr != want {
		t.Fatalf("rr = %v, want %v", rr, want)
	}
	if fc.Count() != 10*n {
		t.Fatalf("flops = %d, want %d", fc.Count(), 10*n)
	}
}

func TestFusedKernelLengthMismatchPanics(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic on length mismatch", name)
			}
		}()
		f()
	}
	a, b := make([]float64, 3), make([]float64, 2)
	check("Dot2", func() { Dot2(a, b, a, nil) })
	check("FusedCGUpdate", func() { FusedCGUpdate(1, 1, a, a, a, b, a, a, nil) })
}
