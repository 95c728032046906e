#include "textflag.h"

// func rotateSSE2(x, y []float64, c, s float64)
//
// x[k], y[k] = c*x[k] - s*y[k], s*x[k] + c*y[k] for k < len(x); the
// caller guarantees len(y) >= len(x). Four elements per iteration,
// then at most one pair, then at most one element.
TEXT ·rotateSSE2(SB), NOSPLIT, $0-64
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	MOVSD  c+48(FP), X0
	MOVSD  s+56(FP), X1
	UNPCKLPD X0, X0 // X0 = {c, c}
	UNPCKLPD X1, X1 // X1 = {s, s}

loop4:
	CMPQ   CX, $4
	JLT    pair
	MOVUPD (SI), X2   // x[k:k+2]
	MOVUPD 16(SI), X6 // x[k+2:k+4]
	MOVUPD (DI), X3   // y[k:k+2]
	MOVUPD 16(DI), X7 // y[k+2:k+4]
	MOVAPD X2, X4
	MOVAPD X3, X5
	MOVAPD X6, X8
	MOVAPD X7, X9
	MULPD  X0, X4 // c*x
	MULPD  X1, X5 // s*y
	MULPD  X0, X8
	MULPD  X1, X9
	SUBPD  X5, X4 // c*x - s*y
	SUBPD  X9, X8
	MULPD  X1, X2 // s*x
	MULPD  X0, X3 // c*y
	MULPD  X1, X6
	MULPD  X0, X7
	ADDPD  X3, X2 // s*x + c*y
	ADDPD  X7, X6
	MOVUPD X4, (SI)
	MOVUPD X8, 16(SI)
	MOVUPD X2, (DI)
	MOVUPD X6, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $4, CX
	JMP    loop4

pair:
	CMPQ   CX, $2
	JLT    tail
	MOVUPD (SI), X2
	MOVUPD (DI), X3
	MOVAPD X2, X4
	MOVAPD X3, X5
	MULPD  X0, X4
	MULPD  X1, X5
	SUBPD  X5, X4
	MULPD  X1, X2
	MULPD  X0, X3
	ADDPD  X3, X2
	MOVUPD X4, (SI)
	MOVUPD X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX

tail:
	CMPQ   CX, $0
	JEQ    done
	MOVSD  (SI), X2
	MOVSD  (DI), X3
	MOVSD  X2, X4
	MOVSD  X3, X5
	MULSD  X0, X4
	MULSD  X1, X5
	SUBSD  X5, X4
	MULSD  X1, X2
	MULSD  X0, X3
	ADDSD  X3, X2
	MOVSD  X4, (SI)
	MOVSD  X2, (DI)

done:
	RET
