#include "textflag.h"

// func sub8(x *[8]float64, a, b []float64, bs int)
//
// The eight sums live in X0-X3, two lanes each.  For every k with
// f = a[k] != 0 (a NaN f is not skipped), each lane does one IEEE multiply,
// rounded, then one subtraction: x[n] = x[n] - b[k*bs+n]*f, the same
// operations, operand order and rounding as the Go loop in sub8_generic.go.
// SSE2 is the amd64 baseline, and no FMA is used.  The caller has checked
// that b holds len(a)*bs words from its start.
TEXT ·sub8(SB), NOSPLIT, $0-64
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
	XORPD	X9, X9
	TESTQ	CX, CX
	JEQ	done

loop:
	MOVSD	(SI), X4
	UCOMISD	X9, X4
	JNE	update
	JPS	update
	JMP	next

update:
	UNPCKLPD	X4, X4
	MOVUPD	0(DX), X5
	MOVUPD	16(DX), X6
	MOVUPD	32(DX), X7
	MOVUPD	48(DX), X8
	MULPD	X4, X5
	MULPD	X4, X6
	MULPD	X4, X7
	MULPD	X4, X8
	SUBPD	X5, X0
	SUBPD	X6, X1
	SUBPD	X7, X2
	SUBPD	X8, X3

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
	RET
