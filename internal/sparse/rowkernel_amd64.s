#include "textflag.h"

// The four product kernels that have an amd64 body: the k-wide one of
// rowkernel.go with a column pair in the two lanes of an XMM register
// (mulMatPair*), the 1-wide one of runs.go that walks a row's runs of
// consecutive columns a line of x per two 256-bit loads (mulVecRuns*), the
// k-wide one over the same runs, a column pair per register (mulMatRuns*,
// with mulMatRuns2F64 its body for the batch of two), and the 1-wide entry
// walk of rowkernel.go (mulVecRows*). The two 1-wide kernels can also carry a dot
// product through their store step (DOTSTEP).

// DOTSTEP is the store step's running dot: when W (the base of w, or 0 for
// none) is set, it adds w[i]·y[i] — X2 holds the y[i] just stored — to X4.
// A sum carried from +0 over ascending rows adds vecops.Dot's terms in its
// order, so it holds Dot's bits (a NaN stays a NaN; which operand's payload
// it carries is not fixed by Go either). The operands go as in the compiled
// s += w[i]*y[i]: w[i] first, the sum the destination of the add.
#define DOTSTEP(W, skip) \
	TESTQ	W, W; \
	JEQ	skip; \
	MOVSD	(W)(AX*8), X3; \
	MULSD	X2, X3; \
	ADDSD	X3, X4; \
skip:

// The k-wide product kernel of rowkernel.go with a column pair in the two
// lanes of one XMM register. For the rows [lo, hi) of a CSR matrix it writes
//
//	y[i*k+c0], y[i*k+c1] = Σₑ val[e]·x[colIdx[e]*k+c0], Σₑ val[e]·x[colIdx[e]*k+c1]
//
// each lane adding its terms left to right in entry order: MULPD and ADDPD
// round per lane exactly as MULSD and ADDSD do, nothing is fused and nothing
// is reassociated, so a lane holds the bits RowDot gives on that column
// alone. c1 may equal c0 (an odd last column rides both lanes). Everything
// is SSE2 but MOVDDUP, the one broadcast that is a plain load (a shuffle
// would queue behind MOVHPD's on the same port: +6 % per entry on G); it is
// SSE3, which GOAMD64=v1 does not promise, so the wrapper reads what
// cpuFeatures found once. (The amd64 compiler fuses no multiply-add at any GOAMD64 level, so
// the Go kernels round the way this file does everywhere it builds.)
//
// Safety is what the Go body's bounds checks give: a row pointer pair that
// runs backwards or past the stored entries, or a column index that is
// negative or not below xrows (both caught by one unsigned compare), stops
// the walk before anything of that row is written, and the row's number is
// returned for the Go wrapper to panic on. hi is returned when every row is
// done. The wrapper has checked that rowPtr holds hi+1 entries, that y holds
// hi·k, that xrows·k ≤ len(x) and that c0, c1 < k.
//
// Registers: R14 rowPtr, SI colIdx, DI val, R15 stored entries, DX &x[c0],
// CX &x[c1], BX &y[i*k+c0], R13 &y[i*k+c1], R11 bytes per block row (8k),
// R12 xrows, AX i, R9 entry, R10 end of row, R8 column index, X2 the sums.
// LOADV leaves val[R9] as a float64 in both lanes of X0.

#define LOADV64 MOVDDUP (DI)(R9*8), X0
#define LOADV32 MOVSS (DI)(R9*4), X0; CVTSS2SD X0, X0; MOVDDUP X0, X0

#define PAIRKERNEL(LOADV) \
	MOVQ	rowPtr_base+0(FP), R14; \
	MOVQ	colIdx_base+24(FP), SI; \
	MOVQ	colIdx_len+32(FP), R15; \
	MOVQ	val_base+48(FP), DI; \
	MOVQ	val_len+56(FP), AX; \
	CMPQ	AX, R15; \
	CMOVQLT	AX, R15; \
	MOVQ	xrows+136(FP), R12; \
	MOVQ	k+144(FP), R11; \
	SHLQ	$3, R11; \
	MOVQ	c0+152(FP), R8; \
	MOVQ	c1+160(FP), R9; \
	MOVQ	x_base+72(FP), DX; \
	LEAQ	(DX)(R9*8), CX; \
	LEAQ	(DX)(R8*8), DX; \
	MOVQ	lo+120(FP), AX; \
	MOVQ	AX, R10; \
	IMULQ	R11, R10; \
	ADDQ	y_base+96(FP), R10; \
	LEAQ	(R10)(R8*8), BX; \
	LEAQ	(R10)(R9*8), R13; \
row: \
	CMPQ	AX, hi+128(FP); \
	JGE	done; \
	MOVQ	(R14)(AX*8), R9; \
	MOVQ	8(R14)(AX*8), R10; \
	CMPQ	R9, R10; \
	JHI	done; \
	CMPQ	R10, R15; \
	JHI	done; \
	XORPS	X2, X2; \
	CMPQ	R9, R10; \
	JEQ	store; \
	PCALIGN	$32; \
entry: \
	MOVQ	(SI)(R9*8), R8; \
	CMPQ	R8, R12; \
	JCC	done; \
	IMULQ	R11, R8; \
	LOADV; \
	MOVSD	(DX)(R8*1), X1; \
	MOVHPD	(CX)(R8*1), X1; \
	MULPD	X1, X0; \
	ADDPD	X0, X2; \
	INCQ	R9; \
	CMPQ	R9, R10; \
	JNE	entry; \
store: \
	MOVLPD	X2, (BX); \
	MOVHPD	X2, (R13); \
	ADDQ	R11, BX; \
	ADDQ	R11, R13; \
	INCQ	AX; \
	JMP	row; \
done: \
	MOVQ	AX, ret+168(FP); \
	RET

// The run product of runs.go. For the rows [lo, hi) it writes
//
//	y[i] = Σ over row i's runs (s, n) of Σ_{j<n} val[j]·x[s+j], val advancing
//
// one run at a time in entry order, from the val the wrapper passes (row
// lo's first value). Per run it loads the start and the length once. A run
// of 8, one 64-byte line of x, is two 256-bit loads of x multiplied by two
// 256-bit loads of the values (VCVTPS2PD widens four float32s); the four
// lanes of each product are then added to the row's sum one at a time,
// lowest first (VPERMILPD brings a lane down, VEXTRACTF128 the upper pair).
// Other runs go two entries at a time (the same with 128 bits) and an odd
// last entry alone. Each multiply takes the value as its first operand,
// each add the sum, as the compiled RowDot does; the sum adds its terms
// left to right in entry order, VMULPD rounds per lane as MULSD does and
// nothing is fused, so y[i] holds RowDot's bits. Every instruction is
// VEX-encoded and VZEROUPPER ends the call. Needs AVX, and the wrapper runs
// it where cpuFeatures found AVX2.
//
// Nothing is checked here but the trip counts: the wrapper has checked
// (RunIndex.stop) that every run of the rows [lo, hi) lies inside x and
// the values left, that their run pointers ascend inside the index, that
// runPtr holds hi+1 entries and that y and a non-nil w hold hi. It returns
// sum plus Σᵢ w[i]·y[i] over the rows when w is not nil (VDOTSTEP; sum
// itself when it is).
//
// Registers: R8 runPtr, R9 runs, DI &val[j], DX x, BX y, R11 w (0 for
// none), R12 hi, AX i, R13 run (byte offset), R14 end of the row's runs,
// CX &x[start], SI entries left in the run, X2 the sum, X4 the running dot.

// VDOTSTEP is DOTSTEP VEX-encoded.
#define VDOTSTEP(W, skip) \
	TESTQ	W, W; \
	JEQ	skip; \
	VMOVSD	(W)(AX*8), X3; \
	VMULSD	X2, X3, X3; \
	VADDSD	X3, X4, X4; \
skip:

#define LANES(Y, X) VADDSD X, X2, X2; VPERMILPD $1, X, X3; VADDSD X3, X2, X2; VEXTRACTF128 $1, Y, X; VADDSD X, X2, X2; VPERMILPD $1, X, X; VADDSD X, X2, X2
#define LINE64 VMOVUPD (DI), Y0; VMULPD (CX), Y0, Y0; VMOVUPD 32(DI), Y1; VMULPD 32(CX), Y1, Y1; LANES(Y0, X0); LANES(Y1, X1)
#define LINE32 VCVTPS2PD (DI), Y0; VMULPD (CX), Y0, Y0; VCVTPS2PD 16(DI), Y1; VMULPD 32(CX), Y1, Y1; LANES(Y0, X0); LANES(Y1, X1)
#define PAIR64 VMOVUPD (DI), X0; VMULPD (CX), X0, X0; VADDSD X0, X2, X2; VPERMILPD $1, X0, X0; VADDSD X0, X2, X2
#define PAIR32 VCVTPS2PD (DI), X0; VMULPD (CX), X0, X0; VADDSD X0, X2, X2; VPERMILPD $1, X0, X0; VADDSD X0, X2, X2
#define LAST64 VMOVSD (DI), X0; VMULSD (CX), X0, X0; VADDSD X0, X2, X2
#define LAST32 VCVTSS2SD (DI), X0, X0; VMULSD (CX), X0, X0; VADDSD X0, X2, X2

#define RUNKERNEL(LINE, PAIR, LAST, VSIZE) \
	MOVQ	runPtr_base+0(FP), R8; \
	MOVQ	runs_base+24(FP), R9; \
	MOVQ	val_base+48(FP), DI; \
	MOVQ	x_base+72(FP), DX; \
	MOVQ	y_base+96(FP), BX; \
	MOVQ	lo+120(FP), AX; \
	MOVQ	hi+128(FP), R12; \
	MOVQ	w_base+136(FP), R11; \
	VMOVSD	sum+160(FP), X4; \
	PCALIGN	$32; \
row: \
	CMPQ	AX, R12; \
	JGE	done; \
	MOVQ	(R8)(AX*8), R13; \
	MOVQ	8(R8)(AX*8), R14; \
	VXORPS	X2, X2, X2; \
	SHLQ	$4, R13; \
	SHLQ	$4, R14; \
	CMPQ	R13, R14; \
	JEQ	store; \
	PCALIGN	$32; \
run: \
	MOVQ	(R9)(R13*1), CX; \
	MOVQ	8(R9)(R13*1), SI; \
	LEAQ	(DX)(CX*8), CX; \
	CMPQ	SI, $8; \
	JNE	pairs; \
	LINE; \
	ADDQ	$(8*VSIZE), DI; \
	JMP	next; \
pairs: \
	CMPQ	SI, $2; \
	JCS	last; \
pair: \
	PAIR; \
	ADDQ	$16, CX; \
	ADDQ	$(2*VSIZE), DI; \
	SUBQ	$2, SI; \
	CMPQ	SI, $2; \
	JCC	pair; \
last: \
	TESTQ	SI, SI; \
	JEQ	next; \
	LAST; \
	ADDQ	$VSIZE, DI; \
next: \
	ADDQ	$16, R13; \
	CMPQ	R13, R14; \
	JNE	run; \
store: \
	VMOVSD	X2, (BX)(AX*8); \
	VDOTSTEP(R11, nodot); \
	INCQ	AX; \
	JMP	row; \
done: \
	VMOVSD	X4, ret+168(FP); \
	VZEROUPPER; \
	RET

// The entry walk of rowkernel.go, the product of a matrix with no run index:
// for the rows [lo, hi) it writes
//
//	y[i] = Σₑ val[e]·x[colIdx[e]]
//
// adding the terms left to right in entry order from +0 with MULSD and
// ADDSD, the value the first operand of the product, as RowDot's compiled
// loop does, so y[i] holds RowDot's bits. It is mulVecRows with the per-row
// work of the Go loop — re-slicing the row, spilling and reloading the
// slices around the call — reduced to two loads and three compares. Its
// store step carries the running dot (DOTSTEP). Everything is SSE2.
//
// Safety is what the Go body's bounds checks give: a row pointer pair that
// runs backwards or past the stored entries, or a column index that is
// negative or not below len(x) (both caught by one unsigned compare), stops
// the walk before anything of that row is written, and the row's number is
// returned for the Go wrapper to panic on; hi is returned when every row is
// done, with the running dot as RUNKERNEL returns it. The wrapper has checked
// that rowPtr holds hi+1 entries and that y and a non-nil w hold hi.
//
// Registers: R14 rowPtr, SI colIdx, DI val, R15 stored entries, DX x, R12
// len(x), BX y, AX i, R13 hi, R11 w (0 for none), R9 entry, R10 end of row,
// R8 column index, X2 the row's sum, X4 the running dot.

#define MULV64 MOVSD (DI)(R9*8), X0; MULSD (DX)(R8*8), X0
#define MULV32 MOVSS (DI)(R9*4), X0; CVTSS2SD X0, X0; MULSD (DX)(R8*8), X0

#define ROWKERNEL(MULV) \
	MOVQ	rowPtr_base+0(FP), R14; \
	MOVQ	colIdx_base+24(FP), SI; \
	MOVQ	colIdx_len+32(FP), R15; \
	MOVQ	val_base+48(FP), DI; \
	MOVQ	val_len+56(FP), AX; \
	CMPQ	AX, R15; \
	CMOVQLT	AX, R15; \
	MOVQ	x_base+72(FP), DX; \
	MOVQ	x_len+80(FP), R12; \
	MOVQ	y_base+96(FP), BX; \
	MOVQ	hi+128(FP), R13; \
	MOVQ	w_base+136(FP), R11; \
	MOVSD	sum+160(FP), X4; \
	MOVQ	lo+120(FP), AX; \
	PCALIGN	$32; \
row: \
	CMPQ	AX, R13; \
	JGE	done; \
	MOVQ	(R14)(AX*8), R9; \
	MOVQ	8(R14)(AX*8), R10; \
	CMPQ	R9, R10; \
	JHI	done; \
	CMPQ	R10, R15; \
	JHI	done; \
	XORPS	X2, X2; \
	CMPQ	R9, R10; \
	JEQ	store; \
	PCALIGN	$32; \
entry: \
	MOVQ	(SI)(R9*8), R8; \
	CMPQ	R8, R12; \
	JCC	done; \
	MULV; \
	ADDSD	X0, X2; \
	INCQ	R9; \
	CMPQ	R9, R10; \
	JNE	entry; \
store: \
	MOVSD	X2, (BX)(AX*8); \
	DOTSTEP(R11, nodot); \
	INCQ	AX; \
	JMP	row; \
done: \
	MOVQ	AX, ret+168(FP); \
	MOVSD	X4, ret1+176(FP); \
	RET

// The k-wide run product: PAIRKERNEL's lanes walked over RUNKERNEL's runs.
// For the rows [lo, hi) it writes
//
//	y[i*k+c0], y[i*k+c1] = Σ over row i's runs (s, n) of Σ_{j<n} val[j]·x[(s+j)*k+c0], … c1
//
// val advancing one run at a time in entry order from the val the wrapper
// passes (row lo's first value). Per run it loads the start and the length
// once and finds &x[s*k+c0] with one multiply. Per entry it broadcasts the value (MOVDDUP;
// float32 values are widened two at a time by CVTPS2PD and broadcast lane
// by lane), loads the pair of x lanes, then MULPD and ADDPD. When
// c1 = c0+1 (k = 2 unmasked) the lanes are one MOVUPD and the entries' x
// addresses are the pointer and the pointer plus 8k, the pointer moving 16k
// bytes per two entries; otherwise they are MOVSD and MOVHPD and the
// pointer moves 8k bytes per entry. A run is walked in unrolled blocks of 8
// (a run of exactly 8, one 64-byte line of float64 values, takes nothing
// else), then 4, 2 and 1. Each lane adds its terms left to right in entry
// order from +0, so it holds RowDot's bits on that column alone, as
// PAIRKERNEL's lanes do. c1 may equal c0 (an odd last column rides both
// lanes). Needs SSE3 (MOVDDUP).
//
// Nothing is checked here but the trip counts, as in RUNKERNEL: the wrapper
// has checked (RunIndex.stop) that the runs of the rows [lo, hi) lie inside
// the len(x)/k rows of x and the values left and that their run pointers
// ascend inside the index, and that runPtr holds hi+1 entries, that y holds
// hi·k and that c0, c1 < k.
//
// Registers: R8 runPtr, R9 runs, DI &val[j], DX &x[c0], R12 hi, R15 bytes
// per x or y row (8k), R10 bytes from lane c0 to lane c1, BX &y[i*k+c0],
// AX i, R13 run (byte offset), R14 end of the row's runs,
// CX &x[(s+j)*k+c0], SI entries left in the run, X2 the sums, X3 two
// widened float32 values.

#define STEP2 LEAQ (CX)(R15*2), CX
#define ADJ64(o, a) MOVDDUP o(DI), X0; MOVUPD a, X1; MULPD X1, X0; ADDPD X0, X2
#define ADJ32(o, a) MOVSS o(DI), X0; CVTSS2SD X0, X0; MOVDDUP X0, X0; MOVUPD a, X1; MULPD X1, X0; ADDPD X0, X2
#define GEN64(o) MOVDDUP o(DI), X0; MOVSD (CX), X1; MOVHPD (CX)(R10*1), X1; MULPD X1, X0; ADDPD X0, X2; ADDQ R15, CX
#define GEN32(o) MOVSS o(DI), X0; CVTSS2SD X0, X0; MOVDDUP X0, X0; MOVSD (CX), X1; MOVHPD (CX)(R10*1), X1; MULPD X1, X0; ADDPD X0, X2; ADDQ R15, CX
#define PAIRADJ32(o, a0, a1) CVTPS2PD o(DI), X3; MOVDDUP X3, X0; MOVUPD a0, X1; MULPD X1, X0; ADDPD X0, X2; UNPCKHPD X3, X3; MOVUPD a1, X1; MULPD X1, X3; ADDPD X3, X2
#define PAIRGEN32(o) CVTPS2PD o(DI), X3; MOVDDUP X3, X0; MOVSD (CX), X1; MOVHPD (CX)(R10*1), X1; MULPD X1, X0; ADDPD X0, X2; ADDQ R15, CX; UNPCKHPD X3, X3; MOVSD (CX), X1; MOVHPD (CX)(R10*1), X1; MULPD X1, X3; ADDPD X3, X2; ADDQ R15, CX

#define ADJ8x64 ADJ64(0, (CX)); ADJ64(8, (CX)(R15*1)); STEP2; ADJ64(16, (CX)); ADJ64(24, (CX)(R15*1)); STEP2; ADJ64(32, (CX)); ADJ64(40, (CX)(R15*1)); STEP2; ADJ64(48, (CX)); ADJ64(56, (CX)(R15*1)); STEP2; ADDQ $64, DI
#define ADJ4x64 ADJ64(0, (CX)); ADJ64(8, (CX)(R15*1)); STEP2; ADJ64(16, (CX)); ADJ64(24, (CX)(R15*1)); STEP2; ADDQ $32, DI
#define ADJ2x64 ADJ64(0, (CX)); ADJ64(8, (CX)(R15*1)); STEP2; ADDQ $16, DI
#define ADJ1x64 ADJ64(0, (CX)); ADDQ $8, DI
#define GEN8x64 GEN64(0); GEN64(8); GEN64(16); GEN64(24); GEN64(32); GEN64(40); GEN64(48); GEN64(56); ADDQ $64, DI
#define GEN4x64 GEN64(0); GEN64(8); GEN64(16); GEN64(24); ADDQ $32, DI
#define GEN2x64 GEN64(0); GEN64(8); ADDQ $16, DI
#define GEN1x64 GEN64(0); ADDQ $8, DI
#define ADJ8x32 PAIRADJ32(0, (CX), (CX)(R15*1)); STEP2; PAIRADJ32(8, (CX), (CX)(R15*1)); STEP2; PAIRADJ32(16, (CX), (CX)(R15*1)); STEP2; PAIRADJ32(24, (CX), (CX)(R15*1)); STEP2; ADDQ $32, DI
#define ADJ4x32 PAIRADJ32(0, (CX), (CX)(R15*1)); STEP2; PAIRADJ32(8, (CX), (CX)(R15*1)); STEP2; ADDQ $16, DI
#define ADJ2x32 PAIRADJ32(0, (CX), (CX)(R15*1)); STEP2; ADDQ $8, DI
#define ADJ1x32 ADJ32(0, (CX)); ADDQ $4, DI
#define GEN8x32 PAIRGEN32(0); PAIRGEN32(8); PAIRGEN32(16); PAIRGEN32(24); ADDQ $32, DI
#define GEN4x32 PAIRGEN32(0); PAIRGEN32(8); ADDQ $16, DI
#define GEN2x32 PAIRGEN32(0); ADDQ $8, DI
#define GEN1x32 GEN32(0); ADDQ $4, DI

// RUNBLOCKS walks the SI entries of one run from CX and DI in blocks of 8, 4,
// 2 and 1 (B8 … B1), labels a8 … a1 its own, then jumps to next.
#define RUNBLOCKS(B8, B4, B2, B1, a8, a4, a2, a1) \
	CMPQ	SI, $8; \
	JNE	a8; \
	B8; \
	JMP	next; \
a8: \
	CMPQ	SI, $8; \
	JCS	a4; \
	B8; \
	SUBQ	$8, SI; \
	JMP	a8; \
a4: \
	TESTB	$4, SIB; \
	JEQ	a2; \
	B4; \
a2: \
	TESTB	$2, SIB; \
	JEQ	a1; \
	B2; \
a1: \
	TESTB	$1, SIB; \
	JEQ	next; \
	B1; \
	JMP	next

#define RUNPAIRKERNEL(ADJ8, ADJ4, ADJ2, ADJ1, GEN8, GEN4, GEN2, GEN1, VSIZE) \
	MOVQ	runPtr_base+0(FP), R8; \
	MOVQ	runs_base+24(FP), R9; \
	MOVQ	val_base+48(FP), DI; \
	MOVQ	hi+128(FP), R12; \
	MOVQ	k+136(FP), R15; \
	SHLQ	$3, R15; \
	MOVQ	c0+144(FP), AX; \
	MOVQ	c1+152(FP), R10; \
	SUBQ	AX, R10; \
	SHLQ	$3, R10; \
	MOVQ	x_base+72(FP), DX; \
	LEAQ	(DX)(AX*8), DX; \
	MOVQ	lo+120(FP), BX; \
	IMULQ	R15, BX; \
	ADDQ	y_base+96(FP), BX; \
	LEAQ	(BX)(AX*8), BX; \
	MOVQ	lo+120(FP), AX; \
	PCALIGN	$32; \
row: \
	CMPQ	AX, R12; \
	JGE	done; \
	MOVQ	(R8)(AX*8), R13; \
	MOVQ	8(R8)(AX*8), R14; \
	XORPS	X2, X2; \
	SHLQ	$4, R13; \
	SHLQ	$4, R14; \
	CMPQ	R13, R14; \
	JEQ	store; \
	PCALIGN	$32; \
run: \
	MOVQ	(R9)(R13*1), CX; \
	MOVQ	8(R9)(R13*1), SI; \
	IMULQ	R15, CX; \
	ADDQ	DX, CX; \
	CMPQ	R10, $8; \
	JNE	gen; \
	RUNBLOCKS(ADJ8, ADJ4, ADJ2, ADJ1, adj8, adj4, adj2, adj1); \
gen: \
	RUNBLOCKS(GEN8, GEN4, GEN2, GEN1, gen8, gen4, gen2, gen1); \
next: \
	ADDQ	$16, R13; \
	CMPQ	R13, R14; \
	JNE	run; \
store: \
	MOVLPD	X2, (BX); \
	MOVHPD	X2, (BX)(R10*1); \
	ADDQ	R15, BX; \
	INCQ	AX; \
	JMP	row; \
done: \
	RET

// The k-wide run product of the batch of two: RUNPAIRKERNEL at k = 2 with
// both columns active (c0 = 0, c1 = 1), which is the width a coalesced
// batch of two runs at. The stride is 16 bytes, so an entry's x pair sits at
// an immediate offset from the run's start and the start's address is a
// shift: x[s*2] is 16s bytes in, the y pair of row i 16i bytes. The rest is
// RUNPAIRKERNEL's adjacent path — the same blocks of 8, 4, 2 and 1 with a
// run of exactly 8 falling through to the next run, the same lane sums and
// so the same bits — with the lane pair stored by one MOVUPD.
// The wrapper has checked what it checks for RUNPAIRKERNEL, with k = 2.
//
// Registers: as RUNPAIRKERNEL's, less R15 and R10.

#define K2(o, xo) MOVDDUP o(DI), X0; MOVUPD xo(CX), X1; MULPD X1, X0; ADDPD X0, X2
#define K2x8 K2(0, 0); K2(8, 16); K2(16, 32); K2(24, 48); K2(32, 64); K2(40, 80); K2(48, 96); K2(56, 112); ADDQ $64, DI
#define K2x4 K2(0, 0); K2(8, 16); K2(16, 32); K2(24, 48); ADDQ $32, DI; ADDQ $64, CX
#define K2x2 K2(0, 0); K2(8, 16); ADDQ $16, DI; ADDQ $32, CX
#define K2x1 K2(0, 0); ADDQ $8, DI

#define RUNPAIR2KERNEL \
	MOVQ	runPtr_base+0(FP), R8; \
	MOVQ	runs_base+24(FP), R9; \
	MOVQ	val_base+48(FP), DI; \
	MOVQ	x_base+72(FP), DX; \
	MOVQ	hi+128(FP), R12; \
	MOVQ	lo+120(FP), AX; \
	MOVQ	AX, BX; \
	SHLQ	$4, BX; \
	ADDQ	y_base+96(FP), BX; \
row: \
	CMPQ	AX, R12; \
	JGE	done; \
	MOVQ	(R8)(AX*8), R13; \
	MOVQ	8(R8)(AX*8), R14; \
	XORPS	X2, X2; \
	SHLQ	$4, R13; \
	SHLQ	$4, R14; \
	CMPQ	R13, R14; \
	JEQ	store; \
	PCALIGN	$32; \
run: \
	MOVQ	(R9)(R13*1), CX; \
	MOVQ	8(R9)(R13*1), SI; \
	SHLQ	$4, CX; \
	ADDQ	DX, CX; \
	CMPQ	SI, $8; \
	JNE	more; \
	K2x8; \
next: \
	ADDQ	$16, R13; \
	CMPQ	R13, R14; \
	JNE	run; \
store: \
	MOVUPD	X2, (BX); \
	ADDQ	$16, BX; \
	INCQ	AX; \
	JMP	row; \
more: \
	CMPQ	SI, $8; \
	JCS	b4; \
	K2x8; \
	ADDQ	$128, CX; \
	SUBQ	$8, SI; \
	JMP	more; \
b4: \
	TESTB	$4, SIB; \
	JEQ	b2; \
	K2x4; \
b2: \
	TESTB	$2, SIB; \
	JEQ	b1; \
	K2x2; \
b1: \
	TESTB	$1, SIB; \
	JEQ	next; \
	K2x1; \
	JMP	next; \
done: \
	RET

// func mulMatPairF64(rowPtr, colIdx []int, val []float64, x, y []float64, lo, hi, xrows, k, c0, c1 int) int
TEXT ·mulMatPairF64(SB), NOSPLIT, $0-176
	PAIRKERNEL(LOADV64)

// func mulMatPairF32(rowPtr, colIdx []int, val []float32, x, y []float64, lo, hi, xrows, k, c0, c1 int) int
TEXT ·mulMatPairF32(SB), NOSPLIT, $0-176
	PAIRKERNEL(LOADV32)

// func mulVecRunsF64(runPtr, runs []int, val []float64, x, y []float64, lo, hi int, w []float64, sum float64) float64
TEXT ·mulVecRunsF64(SB), NOSPLIT, $0-176
	RUNKERNEL(LINE64, PAIR64, LAST64, 8)

// func mulVecRunsF32(runPtr, runs []int, val []float32, x, y []float64, lo, hi int, w []float64, sum float64) float64
TEXT ·mulVecRunsF32(SB), NOSPLIT, $0-176
	RUNKERNEL(LINE32, PAIR32, LAST32, 4)

// func mulMatRunsF64(runPtr, runs []int, val []float64, x, y []float64, lo, hi, k, c0, c1 int)
TEXT ·mulMatRunsF64(SB), NOSPLIT, $0-160
	RUNPAIRKERNEL(ADJ8x64, ADJ4x64, ADJ2x64, ADJ1x64, GEN8x64, GEN4x64, GEN2x64, GEN1x64, 8)

// func mulMatRunsF32(runPtr, runs []int, val []float32, x, y []float64, lo, hi, k, c0, c1 int)
TEXT ·mulMatRunsF32(SB), NOSPLIT, $0-160
	RUNPAIRKERNEL(ADJ8x32, ADJ4x32, ADJ2x32, ADJ1x32, GEN8x32, GEN4x32, GEN2x32, GEN1x32, 4)

// func mulMatRuns2F64(runPtr, runs []int, val []float64, x, y []float64, lo, hi int)
TEXT ·mulMatRuns2F64(SB), NOSPLIT, $0-136
	RUNPAIR2KERNEL

// func mulVecRowsF64(rowPtr, colIdx []int, val []float64, x, y []float64, lo, hi int, w []float64, sum float64) (int, float64)
TEXT ·mulVecRowsF64(SB), NOSPLIT, $0-184
	ROWKERNEL(MULV64)

// func mulVecRowsF32(rowPtr, colIdx []int, val []float32, x, y []float64, lo, hi int, w []float64, sum float64) (int, float64)
TEXT ·mulVecRowsF32(SB), NOSPLIT, $0-184
	ROWKERNEL(MULV32)

// func cpuFeatures() sets sse3 from CPUID.1:ECX bit 0, and avx2 when
// CPUID.1:ECX has OSXSAVE and AVX (bits 27, 28), XCR0 has the SSE and YMM
// state (bits 1, 2: the OS saves the YMM registers) and CPUID.7.0:EBX has
// AVX2 (bit 5).
TEXT ·cpuFeatures(SB), NOSPLIT, $0-0
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	MOVL	CX, BX
	ANDL	$1, BX
	MOVB	BX, ·sse3(SB)
	ANDL	$0x18000000, CX
	CMPL	CX, $0x18000000
	JNE	noavx2
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	noavx2
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	TESTL	$0x20, BX
	JEQ	noavx2
	MOVB	$1, ·avx2(SB)
noavx2:
	RET
