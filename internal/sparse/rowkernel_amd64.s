#include "textflag.h"

// The two product kernels that have an amd64 body: the k-wide one of
// rowkernel.go with a column pair in the two lanes of an XMM register
// (mulMatPair*), and the 1-wide one of runs.go that walks a row's runs of
// consecutive columns two entries per load (mulVecRuns*).

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
// SSE3, which GOAMD64=v1 does not promise, so the wrapper asks cpuHasSSE3
// once. (The amd64 compiler fuses no multiply-add at any GOAMD64 level, so
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
//	y[i] = Σ over row i's runs (s, n) of Σ_{j<n} val[v+j]·x[s+j], v advancing
//
// one run at a time in entry order, from the v the wrapper passes. Per run
// it loads the start and the length once; the entries go two at a time —
// MOVUPD of two x values, the two values (MOVUPD, or CVTPS2PD widening two
// float32s), MULPD, then ADDSD the low lane, UNPCKHPD, ADDSD the high lane —
// and a run of 8, one 64-byte line of x, is fully unrolled. The sum adds its
// terms left to right in entry order and MULPD rounds per lane as MULSD
// does, so y[i] holds RowDot's bits. Everything is SSE2.
//
// Safety is checked per row and per run with unsigned compares: the row's
// run pointers ascending and inside the index, a run's start below xrows
// (len(x)), its length at most xrows − start and at most the values left.
// A refused row is not written and its number is returned for the Go wrapper
// to panic on; hi is returned when every row is done. The wrapper has
// checked that runPtr holds hi+1 entries, that y holds hi and that
// 0 ≤ v ≤ len(val).
//
// Registers: R8 runPtr, R9 runs, R10 runs stored, DI &val[v], R11 values
// left, DX x, R12 xrows, BX y, AX i, R13 run (byte offset), R14 end of the
// row's runs, R15 run start, SI entries left in the run, CX &x[start], X2
// the sum.

#define PAIR64(o) MOVUPD o(DI), X0; MOVUPD o(CX), X1; MULPD X1, X0; ADDSD X0, X2; UNPCKHPD X0, X0; ADDSD X0, X2
#define PAIR32(xo, vo) CVTPS2PD vo(DI), X0; MOVUPD xo(CX), X1; MULPD X1, X0; ADDSD X0, X2; UNPCKHPD X0, X0; ADDSD X0, X2
#define STEP64 PAIR64(0)
#define STEP32 PAIR32(0, 0)
#define RUN8x64 PAIR64(0); PAIR64(16); PAIR64(32); PAIR64(48)
#define RUN8x32 PAIR32(0, 0); PAIR32(16, 8); PAIR32(32, 16); PAIR32(48, 24)
#define LAST64 MOVSD (DI), X0; MOVSD (CX), X1; MULSD X1, X0; ADDSD X0, X2
#define LAST32 MOVSS (DI), X0; CVTSS2SD X0, X0; MOVSD (CX), X1; MULSD X1, X0; ADDSD X0, X2

#define RUNKERNEL(STEP, RUN8, LAST, VSIZE) \
	MOVQ	runPtr_base+0(FP), R8; \
	MOVQ	runs_base+24(FP), R9; \
	MOVQ	runs_len+32(FP), R10; \
	SHRQ	$1, R10; \
	MOVQ	val_base+48(FP), DI; \
	MOVQ	val_len+56(FP), R11; \
	MOVQ	v+136(FP), AX; \
	SUBQ	AX, R11; \
	LEAQ	(DI)(AX*VSIZE), DI; \
	MOVQ	x_base+72(FP), DX; \
	MOVQ	x_len+80(FP), R12; \
	MOVQ	y_base+96(FP), BX; \
	MOVQ	lo+120(FP), AX; \
	PCALIGN	$32; \
row: \
	CMPQ	AX, hi+128(FP); \
	JGE	done; \
	MOVQ	(R8)(AX*8), R13; \
	MOVQ	8(R8)(AX*8), R14; \
	CMPQ	R13, R14; \
	JHI	done; \
	CMPQ	R14, R10; \
	JHI	done; \
	XORPS	X2, X2; \
	SHLQ	$4, R13; \
	SHLQ	$4, R14; \
	CMPQ	R13, R14; \
	JEQ	store; \
	PCALIGN	$32; \
run: \
	MOVQ	(R9)(R13*1), R15; \
	MOVQ	8(R9)(R13*1), SI; \
	CMPQ	R15, R12; \
	JCC	done; \
	MOVQ	R12, CX; \
	SUBQ	R15, CX; \
	CMPQ	SI, CX; \
	JHI	done; \
	CMPQ	SI, R11; \
	JHI	done; \
	SUBQ	SI, R11; \
	LEAQ	(DX)(R15*8), CX; \
	CMPQ	SI, $8; \
	JNE	pairs; \
	RUN8; \
	ADDQ	$(8*VSIZE), DI; \
	JMP	next; \
pairs: \
	CMPQ	SI, $2; \
	JCS	last; \
	PCALIGN	$32; \
pair: \
	STEP; \
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
	MOVSD	X2, (BX)(AX*8); \
	INCQ	AX; \
	JMP	row; \
done: \
	MOVQ	AX, ret+144(FP); \
	RET

// func mulMatPairF64(rowPtr, colIdx []int, val []float64, x, y []float64, lo, hi, xrows, k, c0, c1 int) int
TEXT ·mulMatPairF64(SB), NOSPLIT, $0-176
	PAIRKERNEL(LOADV64)

// func mulMatPairF32(rowPtr, colIdx []int, val []float32, x, y []float64, lo, hi, xrows, k, c0, c1 int) int
TEXT ·mulMatPairF32(SB), NOSPLIT, $0-176
	PAIRKERNEL(LOADV32)

// func mulVecRunsF64(runPtr, runs []int, val []float64, x, y []float64, lo, hi, v int) int
TEXT ·mulVecRunsF64(SB), NOSPLIT, $0-152
	RUNKERNEL(STEP64, RUN8x64, LAST64, 8)

// func mulVecRunsF32(runPtr, runs []int, val []float32, x, y []float64, lo, hi, v int) int
TEXT ·mulVecRunsF32(SB), NOSPLIT, $0-152
	RUNKERNEL(STEP32, RUN8x32, LAST32, 4)

// func cpuHasSSE3() bool
TEXT ·cpuHasSSE3(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	CPUID
	ANDL	$1, CX
	MOVB	CX, ret+0(FP)
	RET
