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
// mask IS its scalar counterpart (Dot, Dot2, Xpay, FusedCGUpdate, and for
// the classic update Axpy, Axpy and Dot in one sweep), which is what lets
// the k-wide CG loops be the scalar solve too.
//
// A 2-wide block with no mask — a coalesced pair of requests, the batch the
// server fills most often — has a body of its own per kernel (the *Pair
// functions at the end of this file): the two columns written out, sums and
// scalars in registers, one bounds proof per vector, where the generic body
// accumulates out[c] += through memory and re-slices every vector per row.
// Same terms in the same order, so the same bits, in about a third of the
// generic body's time: a row of two costs what two elements cost the scalar
// kernel (FusedCGUpdateBatch 2.9 → 0.9 × FusedCGUpdate on as many elements,
// Dot2Batch 1.0 → 0.36 ×). Widths ≥ 3 and masked blocks keep the generic
// body: a tiled body that walks any width in pairs was measured and loses at
// k = 8.

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
		if k == 2 {
			out[0], out[1] = dotPair(x, y)
			fc.Add(4 * int64(n))
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
		if k == 2 {
			outXY[0], outXY[1], outZY[0], outZY[1] = dot2Pair(x, y, z)
			fc.Add(8 * int64(n))
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

// ClassicCGUpdateBatch performs the classic-CG iteration update per active
// column — x_c ← x_c + α[c]·d_c, r_c ← r_c + negAlpha[c]·q_c — and writes
// Σᵢ r²[i,c] of the updated residual into rr[c], leaving masked columns of
// rr untouched: on each column the bits of Axpy(α[c], d_c, x_c),
// Axpy(negAlpha[c], q_c, r_c) and Dot(r_c, r_c) one after the other, each
// vector streamed once. Counts their 6·n flops per active column.
func ClassicCGUpdateBatch(alpha, negAlpha []float64, d, q, x, r []float64, k int, cols []int, rr []float64, fc *FlopCounter) {
	n := checkBatch2(d, r, k, rr, "ClassicCGUpdateBatch")
	if len(q) != len(d) || len(x) != len(d) || len(alpha) < k || len(negAlpha) < k {
		panic(fmt.Sprintf("vecops: ClassicCGUpdateBatch length mismatch %d/%d/%d/%d, or fewer than k=%d scalars", len(d), len(q), len(x), len(r), k))
	}
	if cols == nil {
		switch k {
		case 1:
			a, na, rr0 := alpha[0], negAlpha[0], 0.0
			q, x, r := q[:len(d)], x[:len(d)], r[:len(d)]
			for i := range d {
				rr0 += classicStep(a, na, d[i], q[i], &x[i], &r[i])
			}
			rr[0] = rr0
		case 2:
			a0, a1, n0, n1 := alpha[0], alpha[1], negAlpha[0], negAlpha[1]
			q, x, r := q[:len(d)], x[:len(d)], r[:len(d)]
			rr0, rr1 := 0.0, 0.0
			for i := 0; i+1 < len(d); i += 2 {
				rr0 += classicStep(a0, n0, d[i], q[i], &x[i], &r[i])
				rr1 += classicStep(a1, n1, d[i+1], q[i+1], &x[i+1], &r[i+1])
			}
			rr[0], rr[1] = rr0, rr1
		default:
			for c := 0; c < k; c++ {
				rr[c] = 0
			}
			for i := 0; i < n; i++ {
				ds, qs := d[i*k:i*k+k], q[i*k:i*k+k]
				xs, rs := x[i*k:i*k+k], r[i*k:i*k+k]
				for c := 0; c < k; c++ {
					rr[c] += classicStep(alpha[c], negAlpha[c], ds[c], qs[c], &xs[c], &rs[c])
				}
			}
		}
		fc.Add(6 * int64(n) * int64(k))
		return
	}
	for _, c := range cols {
		rr[c] = 0
	}
	for i := 0; i < n; i++ {
		ds, qs := d[i*k:i*k+k], q[i*k:i*k+k]
		xs, rs := x[i*k:i*k+k], r[i*k:i*k+k]
		for _, c := range cols {
			rr[c] += classicStep(alpha[c], negAlpha[c], ds[c], qs[c], &xs[c], &rs[c])
		}
	}
	fc.Add(6 * int64(n) * int64(len(cols)))
}

// classicStep is the classic-CG update of one vector component: it advances
// x and r in place and returns the square of the new residual entry. Each
// statement is the one Axpy and Dot evaluate, so a sum of its returns in
// ascending components holds the bits of Axpy, Axpy and Dot run one after
// the other.
func classicStep(a, na, d, q float64, x, r *float64) float64 {
	*x += a * d
	ri := *r + na*q
	*r = ri
	return ri * ri
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
		if k == 2 {
			xpayPair(x, a[0], a[1], y)
			fc.Add(4 * int64(n))
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
		if k == 2 {
			rr[0], rr[1] = fusedPair(alpha, beta, u, w, p, s, x, r)
			fc.Add(20 * int64(n))
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

// The unmasked 2-wide bodies. Each takes interleaved blocks of equal, even
// length (the callers' shape checks) and walks them a row — two components —
// at a time; column c's arithmetic is the scalar kernel's on column c.

func dotPair(x, y []float64) (s0, s1 float64) {
	y = y[:len(x)]
	for i := 0; i+1 < len(x); i += 2 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
	}
	return s0, s1
}

func dot2Pair(x, y, z []float64) (xy0, xy1, zy0, zy1 float64) {
	x, z = x[:len(y)], z[:len(y)]
	for i := 0; i+1 < len(y); i += 2 {
		xy0 += x[i] * y[i]
		zy0 += z[i] * y[i]
		xy1 += x[i+1] * y[i+1]
		zy1 += z[i+1] * y[i+1]
	}
	return xy0, xy1, zy0, zy1
}

func xpayPair(x []float64, a0, a1 float64, y []float64) {
	x = x[:len(y)]
	for i := 0; i+1 < len(y); i += 2 {
		y[i] = x[i] + a0*y[i]
		y[i+1] = x[i+1] + a1*y[i+1]
	}
}

func fusedPair(alpha, beta, u, w, p, s, x, r []float64) (rr0, rr1 float64) {
	a0, a1, b0, b1 := alpha[0], alpha[1], beta[0], beta[1]
	w, p, s, x, r = w[:len(u)], p[:len(u)], s[:len(u)], x[:len(u)], r[:len(u)]
	for i := 0; i+1 < len(u); i += 2 {
		rr0 += fusedStep(a0, b0, u[i], w[i], &p[i], &s[i], &x[i], &r[i])
		rr1 += fusedStep(a1, b1, u[i+1], w[i+1], &p[i+1], &s[i+1], &x[i+1], &r[i+1])
	}
	return rr0, rr1
}
