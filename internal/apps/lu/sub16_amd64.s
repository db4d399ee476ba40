#include "textflag.h"

// func sub16(x *[16]float64, a, b []float64, bs int)
//
// The sixteen sums live in X0-X7, two lanes each.  For every k, f = a[k] is
// loaded and tested once for all sixteen columns; when f != 0 (a NaN f is
// not skipped) each lane does one IEEE multiply b[k*bs+n]*f, rounded, then
// one subtraction: x[n] = x[n] - b[k*bs+n]*f, the same operations, operand
// order and rounding as the Go loop in sub16_generic.go.  B goes through
// X10-X13 in two halves of eight columns.  SSE2 is the amd64 baseline, and
// no FMA is used.  The caller has checked that b holds len(a)*bs words from
// its start.
TEXT ·sub16(SB), NOSPLIT, $0-64
	MOVQ	x+0(FP), DI
	MOVQ	a_base+8(FP), SI
	MOVQ	a_len+16(FP), CX
	MOVQ	b_base+32(FP), DX
	MOVQ	bs+56(FP), R8
	SHLQ	$3, R8
	MOVUPD	0(DI), X0
	MOVUPD	16(DI), X1
	MOVUPD	32(DI), X2
	MOVUPD	48(DI), X3
	MOVUPD	64(DI), X4
	MOVUPD	80(DI), X5
	MOVUPD	96(DI), X6
	MOVUPD	112(DI), X7
	XORPD	X9, X9
	TESTQ	CX, CX
	JEQ	done

loop:
	MOVSD	(SI), X8
	UCOMISD	X9, X8
	JNE	update
	JPS	update
	JMP	next

update:
	UNPCKLPD	X8, X8
	MOVUPD	0(DX), X10
	MOVUPD	16(DX), X11
	MOVUPD	32(DX), X12
	MOVUPD	48(DX), X13
	MULPD	X8, X10
	MULPD	X8, X11
	MULPD	X8, X12
	MULPD	X8, X13
	SUBPD	X10, X0
	SUBPD	X11, X1
	SUBPD	X12, X2
	SUBPD	X13, X3
	MOVUPD	64(DX), X10
	MOVUPD	80(DX), X11
	MOVUPD	96(DX), X12
	MOVUPD	112(DX), X13
	MULPD	X8, X10
	MULPD	X8, X11
	MULPD	X8, X12
	MULPD	X8, X13
	SUBPD	X10, X4
	SUBPD	X11, X5
	SUBPD	X12, X6
	SUBPD	X13, X7

next:
	ADDQ	$8, SI
	ADDQ	R8, DX
	DECQ	CX
	JNE	loop

done:
	MOVUPD	X0, 0(DI)
	MOVUPD	X1, 16(DI)
	MOVUPD	X2, 32(DI)
	MOVUPD	X3, 48(DI)
	MOVUPD	X4, 64(DI)
	MOVUPD	X5, 80(DI)
	MOVUPD	X6, 96(DI)
	MOVUPD	X7, 112(DI)
	RET
