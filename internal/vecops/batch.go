package vecops

// Block (multi-RHS) variants of the CG vector kernels. A batch of k vectors
// is stored row-major interleaved — x[i*k+c] is component i of column c —
// matching sparse.CSR.MulMat, so one sweep over a block serves all k
// columns with contiguous loads. Every kernel accumulates each column in
// the same index order as its scalar counterpart; column c of a batched
// solve is therefore bit-identical to a scalar solve of that column.
//
// The cols parameter is the convergence mask of the batched CG loop: a
// strictly ascending list of still-active column indices in [0, k). Masked
// (frozen) columns are neither read nor written, so they stop contributing
// flops the iteration they converge. nil means all columns, walked as a
// plain 0..k−1 loop.
//
// A 1-wide block is a plain vector: every kernel called with k = 1 and no
// mask IS its scalar counterpart (Dot, Dot2, Axpy, Xpay, FusedCGUpdate),
// which is what lets the k-wide CG loops be the scalar solve too.

import "fmt"

// DotBatch writes out[c] = x_cᵀy_c for every active column, leaving masked
// columns of out untouched. Counts 2·n flops per active column.
func DotBatch(x, y []float64, k int, cols []int, out []float64, fc *FlopCounter) {
	n := checkBatch2(x, y, k, out, "DotBatch")
	if cols == nil {
		if k == 1 {
			out[0] = Dot(x, y, fc)
			return
		}
		for c := 0; c < k; c++ {
			out[c] = 0
		}
		for i := 0; i < n; i++ {
			xs, ys := x[i*k:i*k+k], y[i*k:i*k+k]
			for c := range out[:k] {
				out[c] += xs[c] * ys[c]
			}
		}
		fc.Add(2 * int64(n) * int64(k))
		return
	}
	for _, c := range cols {
		out[c] = 0
	}
	for i := 0; i < n; i++ {
		xs, ys := x[i*k:i*k+k], y[i*k:i*k+k]
		for _, c := range cols {
			out[c] += xs[c] * ys[c]
		}
	}
	fc.Add(2 * int64(n) * int64(len(cols)))
}

// Dot2Batch writes outXY[c] = x_cᵀy_c and outZY[c] = z_cᵀy_c for every
// active column in one pass (the batched Dot2 of the fused recurrence).
// Counts 4·n flops per active column.
func Dot2Batch(x, y, z []float64, k int, cols []int, outXY, outZY []float64, fc *FlopCounter) {
	n := checkBatch2(x, y, k, outXY, "Dot2Batch")
	if len(z) != len(y) || len(outZY) < k {
		panic(fmt.Sprintf("vecops: Dot2Batch length mismatch z=%d y=%d outZY=%d k=%d", len(z), len(y), len(outZY), k))
	}
	if cols == nil {
		if k == 1 {
			outXY[0], outZY[0] = Dot2(x, y, z, fc)
			return
		}
		for c := 0; c < k; c++ {
			outXY[c] = 0
			outZY[c] = 0
		}
		for i := 0; i < n; i++ {
			xs, ys, zs := x[i*k:i*k+k], y[i*k:i*k+k], z[i*k:i*k+k]
			for c := 0; c < k; c++ {
				outXY[c] += xs[c] * ys[c]
				outZY[c] += zs[c] * ys[c]
			}
		}
		fc.Add(4 * int64(n) * int64(k))
		return
	}
	for _, c := range cols {
		outXY[c] = 0
		outZY[c] = 0
	}
	for i := 0; i < n; i++ {
		xs, ys, zs := x[i*k:i*k+k], y[i*k:i*k+k], z[i*k:i*k+k]
		for _, c := range cols {
			outXY[c] += xs[c] * ys[c]
			outZY[c] += zs[c] * ys[c]
		}
	}
	fc.Add(4 * int64(n) * int64(len(cols)))
}

// AxpyBatch computes y_c ← a[c]·x_c + y_c for every active column.
// Counts 2·n flops per active column.
func AxpyBatch(a []float64, x, y []float64, k int, cols []int, fc *FlopCounter) {
	n := checkBatch2(x, y, k, a, "AxpyBatch")
	if cols == nil {
		if k == 1 {
			Axpy(a[0], x, y, fc)
			return
		}
		for i := 0; i < n; i++ {
			xs, ys := x[i*k:i*k+k], y[i*k:i*k+k]
			for c := 0; c < k; c++ {
				ys[c] += a[c] * xs[c]
			}
		}
		fc.Add(2 * int64(n) * int64(k))
		return
	}
	for i := 0; i < n; i++ {
		xs, ys := x[i*k:i*k+k], y[i*k:i*k+k]
		for _, c := range cols {
			ys[c] += a[c] * xs[c]
		}
	}
	fc.Add(2 * int64(n) * int64(len(cols)))
}

// XpayBatch computes y_c ← x_c + a[c]·y_c for every active column (the
// search-direction update). Counts 2·n flops per active column.
func XpayBatch(x []float64, a []float64, y []float64, k int, cols []int, fc *FlopCounter) {
	n := checkBatch2(x, y, k, a, "XpayBatch")
	if cols == nil {
		if k == 1 {
			Xpay(x, a[0], y, fc)
			return
		}
		for i := 0; i < n; i++ {
			xs, ys := x[i*k:i*k+k], y[i*k:i*k+k]
			for c := 0; c < k; c++ {
				ys[c] = xs[c] + a[c]*ys[c]
			}
		}
		fc.Add(2 * int64(n) * int64(k))
		return
	}
	for i := 0; i < n; i++ {
		xs, ys := x[i*k:i*k+k], y[i*k:i*k+k]
		for _, c := range cols {
			ys[c] = xs[c] + a[c]*ys[c]
		}
	}
	fc.Add(2 * int64(n) * int64(len(cols)))
}

// FusedCGUpdateBatch performs the fused-CG iteration update per active
// column with per-column scalars —
//
//	p_c ← u_c + β[c]·p_c,  s_c ← w_c + β[c]·s_c,
//	x_c ← x_c + α[c]·p_c,  r_c ← r_c − α[c]·s_c
//
// — and writes Σᵢ r²[i,c] of the updated residual into rr[c], streaming
// every vector once like the scalar FusedCGUpdate. Counts 10·n flops per
// active column.
func FusedCGUpdateBatch(alpha, beta []float64, u, w, p, s, x, r []float64, k int, cols []int, rr []float64, fc *FlopCounter) {
	n := checkBatch2(u, r, k, rr, "FusedCGUpdateBatch")
	if len(w) != len(u) || len(p) != len(u) || len(s) != len(u) || len(x) != len(u) {
		panic(fmt.Sprintf("vecops: FusedCGUpdateBatch length mismatch %d/%d/%d/%d/%d/%d",
			len(u), len(w), len(p), len(s), len(x), len(r)))
	}
	if cols == nil {
		if k == 1 {
			rr[0] = FusedCGUpdate(alpha[0], beta[0], u, w, p, s, x, r, fc)
			return
		}
		for c := 0; c < k; c++ {
			rr[c] = 0
		}
		for i := 0; i < n; i++ {
			us, ws := u[i*k:i*k+k], w[i*k:i*k+k]
			ps, ss := p[i*k:i*k+k], s[i*k:i*k+k]
			xs, rs := x[i*k:i*k+k], r[i*k:i*k+k]
			for c := 0; c < k; c++ {
				rr[c] += fusedStep(alpha[c], beta[c], us[c], ws[c], &ps[c], &ss[c], &xs[c], &rs[c])
			}
		}
		fc.Add(10 * int64(n) * int64(k))
		return
	}
	for _, c := range cols {
		rr[c] = 0
	}
	for i := 0; i < n; i++ {
		us, ws := u[i*k:i*k+k], w[i*k:i*k+k]
		ps, ss := p[i*k:i*k+k], s[i*k:i*k+k]
		xs, rs := x[i*k:i*k+k], r[i*k:i*k+k]
		for _, c := range cols {
			rr[c] += fusedStep(alpha[c], beta[c], us[c], ws[c], &ps[c], &ss[c], &xs[c], &rs[c])
		}
	}
	fc.Add(10 * int64(n) * int64(len(cols)))
}

// fusedStep is the fused-CG update of one vector component: it advances p,
// s, x and r in place and returns the square of the new residual entry.
func fusedStep(alpha, beta, u, w float64, p, s, x, r *float64) float64 {
	pi := u + beta**p
	si := w + beta**s
	*p, *s = pi, si
	*x += alpha * pi
	ri := *r - alpha*si
	*r = ri
	return ri * ri
}

// PackColumn scatters a length-n vector into column c of an interleaved
// n×k block.
func PackColumn(block []float64, col []float64, k, c int) {
	if len(block) != len(col)*k {
		panic(fmt.Sprintf("vecops: PackColumn block %d, want %d·%d", len(block), len(col), k))
	}
	for i, v := range col {
		block[i*k+c] = v
	}
}

// UnpackColumn gathers column c of an interleaved n×k block into a
// length-n vector.
func UnpackColumn(col []float64, block []float64, k, c int) {
	if len(block) != len(col)*k {
		panic(fmt.Sprintf("vecops: UnpackColumn block %d, want %d·%d", len(block), len(col), k))
	}
	for i := range col {
		col[i] = block[i*k+c]
	}
}

// checkBatch2 validates a pair of equal-length interleaved blocks plus a
// k-sized scalar slice and returns the per-column length n.
func checkBatch2(x, y []float64, k int, scalars []float64, name string) int {
	if k < 1 {
		panic(fmt.Sprintf("vecops: %s batch size %d < 1", name, k))
	}
	if len(x) != len(y) || len(x)%k != 0 {
		panic(fmt.Sprintf("vecops: %s length mismatch %d vs %d (k=%d)", name, len(x), len(y), k))
	}
	if len(scalars) < k {
		panic(fmt.Sprintf("vecops: %s scalar slice %d < k=%d", name, len(scalars), k))
	}
	return len(x) / k
}
