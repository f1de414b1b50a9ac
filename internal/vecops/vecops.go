// Package vecops implements the dense vector kernels of the Conjugate
// Gradient method — dot products, AXPY-style linear combinations, scaling
// and norms — with optional floating-point-operation accounting used by the
// GFLOP/s reproductions (Figures 3b, 5b, 7).
package vecops

import (
	"fmt"
	"math"
	"sync/atomic"
)

// FlopCounter accumulates floating-point operation counts. The zero value is
// ready to use; a nil *FlopCounter disables accounting. Counters are safe
// for concurrent use (the distributed solver runs one goroutine per rank
// against per-rank counters, but collectives may fold counts together).
type FlopCounter struct {
	flops atomic.Int64
}

// Add records n floating-point operations. Safe on a nil receiver.
func (c *FlopCounter) Add(n int64) {
	if c != nil {
		c.flops.Add(n)
	}
}

// Count returns the accumulated operation count. A nil counter reports 0.
func (c *FlopCounter) Count() int64 {
	if c == nil {
		return 0
	}
	return c.flops.Load()
}

// Reset zeroes the counter. Safe on a nil receiver.
func (c *FlopCounter) Reset() {
	if c != nil {
		c.flops.Store(0)
	}
}

// Dot returns xᵀy, counting 2·len(x) flops.
func Dot(x, y []float64, fc *FlopCounter) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecops: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	fc.Add(2 * int64(len(x)))
	return s
}

// Axpy computes y ← a·x + y, counting 2·len(x) flops.
func Axpy(a float64, x, y []float64, fc *FlopCounter) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecops: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += a * x[i]
	}
	fc.Add(2 * int64(len(x)))
}

// Xpay computes y ← x + a·y (the update used for CG search directions),
// counting 2·len(x) flops.
func Xpay(x []float64, a float64, y []float64, fc *FlopCounter) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecops: Xpay length mismatch %d vs %d", len(x), len(y)))
	}
	for i := range y {
		y[i] = x[i] + a*y[i]
	}
	fc.Add(2 * int64(len(x)))
}

// Dot2 returns (xᵀy, zᵀy) in one pass over the three vectors, counting 4·n
// flops. The fused CG recurrence needs both rᵀu and wᵀu after every
// preconditioner+SpMV application; merging them halves the sweeps over u.
func Dot2(x, y, z []float64, fc *FlopCounter) (xy, zy float64) {
	if len(x) != len(y) || len(z) != len(y) {
		panic(fmt.Sprintf("vecops: Dot2 length mismatch %d/%d/%d", len(x), len(y), len(z)))
	}
	for i := range y {
		xy += x[i] * y[i]
		zy += z[i] * y[i]
	}
	fc.Add(4 * int64(len(y)))
	return xy, zy
}

// Dot3 returns (xᵀy, zᵀy, xᵀx) in one pass over the three vectors,
// counting 6·n flops. The pipelined CG recurrence reduces all three scalars
// of an iteration — rᵀu, wᵀu and ‖r‖² — in one collective, and this kernel
// produces the local contributions in a single sweep.
func Dot3(x, y, z []float64, fc *FlopCounter) (xy, zy, xx float64) {
	if len(x) != len(y) || len(z) != len(y) {
		panic(fmt.Sprintf("vecops: Dot3 length mismatch %d/%d/%d", len(x), len(y), len(z)))
	}
	for i := range y {
		xy += x[i] * y[i]
		zy += z[i] * y[i]
		xx += x[i] * x[i]
	}
	fc.Add(6 * int64(len(y)))
	return xy, zy, xx
}

// FusedCGUpdate performs the four vector updates of one fused-CG iteration
// in a single sweep and folds the residual-norm reduction into the same
// loop (the AxpyDot/XpayNorm2 merged update+reduce style):
//
//	p ← u + β·p
//	s ← w + β·s
//	x ← x + α·p
//	r ← r − α·s
//
// and returns Σ rᵢ² of the updated residual. The classic loop needs four
// separate sweeps plus a fifth for the norm; this kernel streams each
// vector exactly once. Counts 10·n flops (8 update + 2 reduce).
func FusedCGUpdate(alpha, beta float64, u, w, p, s, x, r []float64, fc *FlopCounter) float64 {
	n := len(u)
	if len(w) != n || len(p) != n || len(s) != n || len(x) != n || len(r) != n {
		panic(fmt.Sprintf("vecops: FusedCGUpdate length mismatch %d/%d/%d/%d/%d/%d",
			len(u), len(w), len(p), len(s), len(x), len(r)))
	}
	rr := 0.0
	for i := 0; i < n; i++ {
		pi := u[i] + beta*p[i]
		si := w[i] + beta*s[i]
		p[i] = pi
		s[i] = si
		x[i] += alpha * pi
		ri := r[i] - alpha*si
		r[i] = ri
		rr += ri * ri
	}
	fc.Add(10 * int64(n))
	return rr
}

// PipelinedCGUpdate performs the eight vector updates of one pipelined-CG
// (Ghysels–Vanroose) iteration in a single sweep:
//
//	z ← n + β·z    q ← m + β·q    s ← w + β·s    p ← u + β·p
//	x ← x + α·p    r ← r − α·s    u ← u − α·q    w ← w − α·z
//
// The auxiliary recurrences keep q = M·s and z = A·M·s current without extra
// operator applications, which is what lets the next iteration's reduction
// operands exist before the previous reduction has completed. Counts 16·n
// flops.
func PipelinedCGUpdate(alpha, beta float64, n, m, w, u, z, q, s, p, x, r []float64, fc *FlopCounter) {
	ln := len(n)
	if len(m) != ln || len(w) != ln || len(u) != ln || len(z) != ln ||
		len(q) != ln || len(s) != ln || len(p) != ln || len(x) != ln || len(r) != ln {
		panic(fmt.Sprintf("vecops: PipelinedCGUpdate length mismatch %d/%d/%d/%d/%d/%d/%d/%d/%d/%d",
			len(n), len(m), len(w), len(u), len(z), len(q), len(s), len(p), len(x), len(r)))
	}
	for i := 0; i < ln; i++ {
		zi := n[i] + beta*z[i]
		qi := m[i] + beta*q[i]
		si := w[i] + beta*s[i]
		pi := u[i] + beta*p[i]
		z[i] = zi
		q[i] = qi
		s[i] = si
		p[i] = pi
		x[i] += alpha * pi
		r[i] -= alpha * si
		u[i] -= alpha * qi
		w[i] -= alpha * zi
	}
	fc.Add(16 * int64(ln))
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64, fc *FlopCounter) float64 {
	return math.Sqrt(Dot(x, x, fc))
}

// Fill sets every component of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}
