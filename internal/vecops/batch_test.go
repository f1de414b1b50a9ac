package vecops

import (
	"math"
	"math/rand"
	"testing"
)

func randBlock(rng *rand.Rand, n, k int) []float64 {
	x := make([]float64, n*k)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func col(block []float64, k, c, n int) []float64 {
	v := make([]float64, n)
	UnpackColumn(v, block, k, c)
	return v
}

// Every batched kernel must reproduce its scalar counterpart bit for bit on
// each active column and leave masked columns untouched.
func TestBatchKernelsMatchScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, k = 57, 5
	cols := []int{1, 3, 4}
	active := map[int]bool{1: true, 3: true, 4: true}

	x := randBlock(rng, n, k)
	y := randBlock(rng, n, k)
	z := randBlock(rng, n, k)
	a := []float64{0.5, -1.25, 2, 0.75, -3}

	// DotBatch vs Dot.
	out := []float64{9, 9, 9, 9, 9}
	DotBatch(x, y, k, cols, out, nil)
	for c := 0; c < k; c++ {
		if !active[c] {
			if out[c] != 9 {
				t.Fatalf("DotBatch wrote masked col %d", c)
			}
			continue
		}
		want := Dot(col(x, k, c, n), col(y, k, c, n), nil)
		if out[c] != want {
			t.Fatalf("DotBatch col %d: %v != %v", c, out[c], want)
		}
	}
	outAll := make([]float64, k)
	DotBatch(x, y, k, nil, outAll, nil)
	for c := 0; c < k; c++ {
		if want := Dot(col(x, k, c, n), col(y, k, c, n), nil); outAll[c] != want {
			t.Fatalf("DotBatch nil-mask col %d: %v != %v", c, outAll[c], want)
		}
	}

	// Dot2Batch vs Dot2.
	oXY := make([]float64, k)
	oZY := make([]float64, k)
	Dot2Batch(x, y, z, k, cols, oXY, oZY, nil)
	for _, c := range cols {
		wXY, wZY := Dot2(col(x, k, c, n), col(y, k, c, n), col(z, k, c, n), nil)
		if oXY[c] != wXY || oZY[c] != wZY {
			t.Fatalf("Dot2Batch col %d: (%v,%v) != (%v,%v)", c, oXY[c], oZY[c], wXY, wZY)
		}
	}

	// AxpyBatch vs Axpy.
	yb := append([]float64(nil), y...)
	AxpyBatch(a, x, yb, k, cols, nil)
	for c := 0; c < k; c++ {
		want := col(y, k, c, n)
		if active[c] {
			Axpy(a[c], col(x, k, c, n), want, nil)
		}
		got := col(yb, k, c, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AxpyBatch col %d row %d: %v != %v", c, i, got[i], want[i])
			}
		}
	}

	// XpayBatch vs Xpay.
	yb = append([]float64(nil), y...)
	XpayBatch(x, a, yb, k, cols, nil)
	for c := 0; c < k; c++ {
		want := col(y, k, c, n)
		if active[c] {
			Xpay(col(x, k, c, n), a[c], want, nil)
		}
		got := col(yb, k, c, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("XpayBatch col %d row %d: %v != %v", c, i, got[i], want[i])
			}
		}
	}
}

func TestFusedCGUpdateBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, k = 41, 4
	alpha := []float64{0.9, -0.3, 1.1, 0.2}
	beta := []float64{0.1, 0.7, -0.5, 1.3}
	u := randBlock(rng, n, k)
	w := randBlock(rng, n, k)
	p0 := randBlock(rng, n, k)
	s0 := randBlock(rng, n, k)
	x0 := randBlock(rng, n, k)
	r0 := randBlock(rng, n, k)

	for _, cols := range [][]int{nil, {0, 2}} {
		p := append([]float64(nil), p0...)
		s := append([]float64(nil), s0...)
		x := append([]float64(nil), x0...)
		r := append([]float64(nil), r0...)
		rr := []float64{-1, -1, -1, -1}
		FusedCGUpdateBatch(alpha, beta, u, w, p, s, x, r, k, cols, rr, nil)

		activeSet := map[int]bool{}
		if cols == nil {
			for c := 0; c < k; c++ {
				activeSet[c] = true
			}
		} else {
			for _, c := range cols {
				activeSet[c] = true
			}
		}
		for c := 0; c < k; c++ {
			pc := col(p0, k, c, n)
			sc := col(s0, k, c, n)
			xc := col(x0, k, c, n)
			rc := col(r0, k, c, n)
			wantRR := -1.0
			if activeSet[c] {
				wantRR = FusedCGUpdate(alpha[c], beta[c],
					col(u, k, c, n), col(w, k, c, n), pc, sc, xc, rc, nil)
			}
			for i, want := range [][]float64{pc, sc, xc, rc} {
				got := [][]float64{col(p, k, c, n), col(s, k, c, n), col(x, k, c, n), col(r, k, c, n)}[i]
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("fused col %d vec %d row %d: %v != %v", c, i, j, got[j], want[j])
					}
				}
			}
			if rr[c] != wantRR {
				t.Fatalf("fused col %d rr: %v != %v", c, rr[c], wantRR)
			}
		}
	}
}

func TestBatchFlopAccounting(t *testing.T) {
	const n, k = 10, 4
	x := make([]float64, n*k)
	y := make([]float64, n*k)
	a := make([]float64, k)
	out := make([]float64, k)

	var fc FlopCounter
	DotBatch(x, y, k, nil, out, &fc)
	if fc.Count() != 2*n*k {
		t.Fatalf("DotBatch flops = %d, want %d", fc.Count(), 2*n*k)
	}
	fc.Reset()
	DotBatch(x, y, k, []int{1}, out, &fc)
	if fc.Count() != 2*n {
		t.Fatalf("masked DotBatch flops = %d, want %d", fc.Count(), 2*n)
	}
	fc.Reset()
	AxpyBatch(a, x, y, k, []int{0, 3}, &fc)
	if fc.Count() != 2*n*2 {
		t.Fatalf("AxpyBatch flops = %d, want %d", fc.Count(), 2*n*2)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, k = 13, 3
	block := make([]float64, n*k)
	want := make([][]float64, k)
	for c := 0; c < k; c++ {
		want[c] = make([]float64, n)
		for i := range want[c] {
			want[c][i] = rng.NormFloat64()
		}
		PackColumn(block, want[c], k, c)
	}
	for c := 0; c < k; c++ {
		got := make([]float64, n)
		UnpackColumn(got, block, k, c)
		for i := range got {
			if got[i] != want[c][i] {
				t.Fatalf("round trip col %d row %d: %v != %v", c, i, got[i], want[c][i])
			}
		}
	}
}

func TestBatchShapePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"k0", func() { DotBatch(nil, nil, 0, nil, nil, nil) }},
		{"mismatch", func() { DotBatch(make([]float64, 4), make([]float64, 6), 2, nil, make([]float64, 2), nil) }},
		{"shortOut", func() { DotBatch(make([]float64, 4), make([]float64, 4), 2, nil, make([]float64, 1), nil) }},
		{"pack", func() { PackColumn(make([]float64, 5), make([]float64, 3), 2, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// FuzzBatchKernelsWidth1: a 1-wide block is a plain vector, so every k-wide
// kernel at k = 1 must return its scalar counterpart's bits and count its
// flops — through the unmasked hand-off the CG loops take at width 1 and
// through the generic masked body (mask [0]) alike — for any length and any
// scalars, NaN and Inf included.
func FuzzBatchKernelsWidth1(f *testing.F) {
	f.Add(int64(1), uint16(0), 0.5, -1.25)
	f.Add(int64(2), uint16(1), 0.0, 1.0)
	f.Add(int64(3), uint16(257), math.Inf(1), math.NaN())
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, alpha, beta float64) {
		n := int(n16 % 1024)
		rng := rand.New(rand.NewSource(seed))
		same := func(name string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s[%d]: k-wide %v, scalar %v", name, i, got[i], want[i])
				}
			}
		}
		for _, mask := range [][]int{nil, {0}} {
			v := make([][]float64, 6) // u, w, p, s, x, r
			for i := range v {
				v[i] = randBlock(rng, n, 1)
			}
			clone := func() [][]float64 {
				c := make([][]float64, len(v))
				for i := range v {
					c[i] = append([]float64(nil), v[i]...)
				}
				return c
			}
			var fk, fs FlopCounter
			out, out2 := []float64{7}, []float64{7}

			DotBatch(v[0], v[1], 1, mask, out, &fk)
			same("Dot", out, []float64{Dot(v[0], v[1], &fs)})
			Dot2Batch(v[0], v[1], v[2], 1, mask, out, out2, &fk)
			xy, zy := Dot2(v[0], v[1], v[2], &fs)
			same("Dot2", []float64{out[0], out2[0]}, []float64{xy, zy})

			k, s := clone(), clone()
			AxpyBatch([]float64{alpha}, k[0], k[1], 1, mask, &fk)
			Axpy(alpha, s[0], s[1], &fs)
			same("Axpy", k[1], s[1])
			XpayBatch(k[0], []float64{beta}, k[2], 1, mask, &fk)
			Xpay(s[0], beta, s[2], &fs)
			same("Xpay", k[2], s[2])

			k, s = clone(), clone()
			FusedCGUpdateBatch([]float64{alpha}, []float64{beta}, k[0], k[1], k[2], k[3], k[4], k[5], 1, mask, out, &fk)
			same("FusedCGUpdate rr", out, []float64{FusedCGUpdate(alpha, beta, s[0], s[1], s[2], s[3], s[4], s[5], &fs)})
			for i, name := range []string{"u", "w", "p", "s", "x", "r"} {
				same("FusedCGUpdate "+name, k[i], s[i])
			}
			if fk.Count() != fs.Count() {
				t.Fatalf("mask %v: k-wide kernels counted %d flops, scalar %d", mask, fk.Count(), fs.Count())
			}
		}
	})
}

// FuzzBatchKernelsWidth2: the unmasked 2-wide hand-off of every k-wide kernel
// — the body a coalesced pair of requests runs — must give each column the
// bits its scalar counterpart gives on that column alone, and count both
// columns' flops, for any length and any per-column scalars, NaN and Inf
// included. The generic body under mask [0 1] is held to the same.
func FuzzBatchKernelsWidth2(f *testing.F) {
	f.Add(int64(1), uint16(0), 0.5, -1.25, 2.0, 0.75)
	f.Add(int64(2), uint16(1), 0.0, 1.0, -0.0, 1e300)
	f.Add(int64(3), uint16(257), math.Inf(1), math.NaN(), math.NaN(), math.Inf(-1))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, alpha0, beta0, alpha1, beta1 float64) {
		const k = 2
		n := int(n16 % 1024)
		rng := rand.New(rand.NewSource(seed))
		alpha, beta := []float64{alpha0, alpha1}, []float64{beta0, beta1}
		for _, mask := range [][]int{nil, {0, 1}} {
			v := make([][]float64, 6) // u, w, p, s, x, r
			for i := range v {
				v[i] = randBlock(rng, n, k)
			}
			clone := func() [][]float64 {
				c := make([][]float64, len(v))
				for i := range v {
					c[i] = append([]float64(nil), v[i]...)
				}
				return c
			}
			// same compares column c of k-wide blocks with scalar vectors.
			same := func(name string, c int, got, want []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i*k+c]) != math.Float64bits(want[i]) {
						t.Fatalf("mask %v, %s column %d [%d]: k-wide %v, scalar %v", mask, name, c, i, got[i*k+c], want[i])
					}
				}
			}
			var fk, fs FlopCounter
			dot, out, out2 := []float64{7, 7}, []float64{7, 7}, []float64{7, 7}

			DotBatch(v[0], v[1], k, mask, dot, &fk)
			Dot2Batch(v[0], v[1], v[2], k, mask, out, out2, &fk)
			kw := clone()
			AxpyBatch(alpha, kw[0], kw[1], k, mask, &fk)
			XpayBatch(kw[0], beta, kw[2], k, mask, &fk)
			fu := clone()
			rr := []float64{7, 7}
			FusedCGUpdateBatch(alpha, beta, fu[0], fu[1], fu[2], fu[3], fu[4], fu[5], k, mask, rr, &fk)

			for c := 0; c < k; c++ {
				s := make([][]float64, len(v))
				for i := range v {
					s[i] = col(v[i], k, c, n)
				}
				same("Dot", 0, dot[c:c+1], []float64{Dot(s[0], s[1], &fs)})
				xy, zy := Dot2(s[0], s[1], s[2], &fs)
				same("Dot2 xy", 0, out[c:c+1], []float64{xy})
				same("Dot2 zy", 0, out2[c:c+1], []float64{zy})
				Axpy(alpha[c], s[0], s[1], &fs)
				same("Axpy", c, kw[1], s[1])
				Xpay(s[0], beta[c], s[2], &fs)
				same("Xpay", c, kw[2], s[2])

				for i := range v {
					s[i] = col(v[i], k, c, n)
				}
				same("FusedCGUpdate rr", 0, rr[c:c+1], []float64{FusedCGUpdate(alpha[c], beta[c], s[0], s[1], s[2], s[3], s[4], s[5], &fs)})
				for i, name := range []string{"u", "w", "p", "s", "x", "r"} {
					same("FusedCGUpdate "+name, c, fu[i], s[i])
				}
			}
			if fk.Count() != fs.Count() {
				t.Fatalf("mask %v: k-wide kernels counted %d flops, scalar column by column %d", mask, fk.Count(), fs.Count())
			}
		}
	})
}
