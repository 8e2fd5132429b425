// AVX2 kernels: the conv and matmul inner loops every figure benchmark
// sits on, and the span kernels of the elementwise layers.
//
// axpyAVX2 uses separate VMULPS/VADDPS (never FMA): each y[i] += a*x[i] is
// two correctly-rounded float32 operations, exactly like the scalar
// fallback, so vectorization cannot change a single output bit and the
// package's determinism contract holds across architectures and worker
// counts alike.
//
// dotAVX2 accumulates in four independent 8-lane registers and reduces at
// the end; the reduction order is fixed by the kernel, so results are
// deterministic for any worker count (they differ from the scalar
// fallback's left-to-right order, which only non-amd64 builds use).
//
// The elementwise span kernels (ReLU and BatchNorm2d) change no output
// bit either; each has a *Generic fallback in simd_generic.go that is its
// oracle, and the Go dispatcher runs that fallback over the tail:
//
//   - reluAVX2: min(max(x, 0), cap). VMAXPS returns its second source for
//     NaN and for ±0 pairs, exactly the scalar `if !(v > 0) { v = 0 }`.
//   - reluGateAVX2, reluCapGateAVX2: the backward gate 0 < y (< cap) on the
//     saved output, an ordered compare mask ANDed with the gradient, so a
//     passed gradient keeps every bit and a blocked one is +0.
//   - bnNormAVX2 (xh = (x-mean)*inv; y = g*xh + b) and bnApplyAVX2
//     (dx = k*((dy-mDy) - xh*mDyXh)): one correctly-rounded
//     VSUBPS/VMULPS/VADDPS per scalar operation, in the scalar order, never
//     FMA.
//   - sumSpanAVX2, sqDevSpanAVX2, dyXhSpanAVX2: BatchNorm's per-channel
//     float64 sums. VCVTPS2PD widens float32 exactly and a float64
//     product of two float32 values is exact, so the only roundings are
//     the adds; element i of every row adds into lane i%16, the lanes are
//     carried across a channel's rows in the caller's array and combined
//     once in a fixed order. The fallback adds in the same lanes, so every
//     build and worker count gets the same sums. They differ from a single
//     serial float64 chain only by float64 rounding, which moves a float32
//     statistic by at most 1 ulp (elementwise_test.go) and, on the four
//     models, by none (internal/core testdata/model_digests.json).

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	eaxIn+0(FP), AX
	MOVL	ecxIn+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL	CX, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET

// func axpyAVX2(a float32, x, y []float32)
// y[i] += a * x[i] for i in [0, len(x)); len(y) >= len(x) is the caller's
// responsibility (the Go wrapper checks it).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVSS	a+0(FP), X0
	VBROADCASTSS	X0, Y0
	MOVQ	x_base+8(FP), SI
	MOVQ	y_base+32(FP), DI
	MOVQ	x_len+16(FP), CX

axpy_loop32:
	CMPQ	CX, $32
	JL	axpy_tail8
	VMOVUPS	(SI), Y1
	VMOVUPS	32(SI), Y2
	VMOVUPS	64(SI), Y3
	VMOVUPS	96(SI), Y4
	VMULPS	Y0, Y1, Y1
	VMULPS	Y0, Y2, Y2
	VMULPS	Y0, Y3, Y3
	VMULPS	Y0, Y4, Y4
	VADDPS	(DI), Y1, Y1
	VADDPS	32(DI), Y2, Y2
	VADDPS	64(DI), Y3, Y3
	VADDPS	96(DI), Y4, Y4
	VMOVUPS	Y1, (DI)
	VMOVUPS	Y2, 32(DI)
	VMOVUPS	Y3, 64(DI)
	VMOVUPS	Y4, 96(DI)
	ADDQ	$128, SI
	ADDQ	$128, DI
	SUBQ	$32, CX
	JMP	axpy_loop32

axpy_tail8:
	CMPQ	CX, $8
	JL	axpy_tail1
	VMOVUPS	(SI), Y1
	VMULPS	Y0, Y1, Y1
	VADDPS	(DI), Y1, Y1
	VMOVUPS	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	axpy_tail8

axpy_tail1:
	TESTQ	CX, CX
	JZ	axpy_done
	MOVSS	(SI), X1
	MULSS	X0, X1
	ADDSS	(DI), X1
	MOVSS	X1, (DI)
	ADDQ	$4, SI
	ADDQ	$4, DI
	DECQ	CX
	JMP	axpy_tail1

axpy_done:
	VZEROUPPER
	RET

// func dotAVX2(x, y []float32) float32
// Returns sum_i x[i]*y[i] over len(x) elements; len(y) >= len(x) is the
// caller's responsibility.
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ	x_base+0(FP), SI
	MOVQ	y_base+24(FP), DI
	MOVQ	x_len+8(FP), CX
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3

dot_loop32:
	CMPQ	CX, $32
	JL	dot_tail8
	VMOVUPS	(SI), Y4
	VMOVUPS	32(SI), Y5
	VMOVUPS	64(SI), Y6
	VMOVUPS	96(SI), Y7
	VMULPS	(DI), Y4, Y4
	VMULPS	32(DI), Y5, Y5
	VMULPS	64(DI), Y6, Y6
	VMULPS	96(DI), Y7, Y7
	VADDPS	Y4, Y0, Y0
	VADDPS	Y5, Y1, Y1
	VADDPS	Y6, Y2, Y2
	VADDPS	Y7, Y3, Y3
	ADDQ	$128, SI
	ADDQ	$128, DI
	SUBQ	$32, CX
	JMP	dot_loop32

dot_tail8:
	CMPQ	CX, $8
	JL	dot_reduce
	VMOVUPS	(SI), Y4
	VMULPS	(DI), Y4, Y4
	VADDPS	Y4, Y0, Y0
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	dot_tail8

dot_reduce:
	VADDPS	Y1, Y0, Y0
	VADDPS	Y3, Y2, Y2
	VADDPS	Y2, Y0, Y0
	VEXTRACTF128	$1, Y0, X1
	VADDPS	X1, X0, X0
	VHADDPS	X0, X0, X0
	VHADDPS	X0, X0, X0

dot_tail1:
	TESTQ	CX, CX
	JZ	dot_done
	MOVSS	(SI), X1
	MULSS	(DI), X1
	ADDSS	X1, X0
	ADDQ	$4, SI
	ADDQ	$4, DI
	DECQ	CX
	JMP	dot_tail1

dot_done:
	VZEROUPPER
	MOVSS	X0, ret+48(FP)
	RET

// Direct-convolution span kernels on the packed NC8HW8 layout (see
// packed.go / conv_direct.go). One call computes npix output pixels of
// one conv output row across the 8 output-channel lanes of one block:
// for each pixel p, acc[0..7] = sum over rows r of x[p*pixStride+xoff[r]]
// broadcast against the 8-float weight vector w[r*8..r*8+7].
//
// convPackedSpanAVX2 uses separate VMULPS/VADDPS, so every accumulation
// step is one correctly-rounded multiply plus one correctly-rounded add
// in ascending-row order — bit-identical to convPackedSpanGeneric and
// (by the argument in conv_direct.go) to the im2col+matmul path.
//
// convPackedSpanFMA is the opt-in variant (SetFMA): VFMADD231PS fuses
// the multiply and add into a single rounding, which is faster but not
// bit-identical to the scalar path. Its accumulation order is unchanged,
// so it remains deterministic across worker counts.
//
// Register plan (both variants):
//   DI  y cursor              SI  x base for current pixel block
//   R8  w base                R9  xoff base
//   AX  rows                  CX  npix remaining
//   R13 pixStride*4 (bytes)   R14 3*pixStride*4
//   R10 row counter           R11 w cursor   R12 xoff cursor
//   DX  offset temp           BX  x address temp
//   Y0-Y3 accumulators        Y4-Y7 broadcasts   Y8 weight vector

// func convPackedSpanAVX2(y, x, w []float32, xoff []int32, rows, pixStride, npix int)
TEXT ·convPackedSpanAVX2(SB), NOSPLIT, $0-120
	MOVQ	y_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	w_base+48(FP), R8
	MOVQ	xoff_base+72(FP), R9
	MOVQ	rows+96(FP), AX
	MOVQ	pixStride+104(FP), R13
	SHLQ	$2, R13
	LEAQ	(R13)(R13*2), R14
	MOVQ	npix+112(FP), CX

cps_block4:
	CMPQ	CX, $4
	JL	cps_tail
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	MOVQ	R8, R11
	MOVQ	R9, R12
	MOVQ	AX, R10

cps_rows4:
	MOVLQSX	(R12), DX
	LEAQ	(SI)(DX*4), BX
	VBROADCASTSS	(BX), Y4
	VBROADCASTSS	(BX)(R13*1), Y5
	VBROADCASTSS	(BX)(R13*2), Y6
	VBROADCASTSS	(BX)(R14*1), Y7
	VMOVUPS	(R11), Y8
	VMULPS	Y8, Y4, Y4
	VMULPS	Y8, Y5, Y5
	VMULPS	Y8, Y6, Y6
	VMULPS	Y8, Y7, Y7
	VADDPS	Y4, Y0, Y0
	VADDPS	Y5, Y1, Y1
	VADDPS	Y6, Y2, Y2
	VADDPS	Y7, Y3, Y3
	ADDQ	$32, R11
	ADDQ	$4, R12
	DECQ	R10
	JNZ	cps_rows4
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, DI
	LEAQ	(SI)(R13*4), SI
	SUBQ	$4, CX
	JMP	cps_block4

cps_tail:
	TESTQ	CX, CX
	JZ	cps_done
	VXORPS	Y0, Y0, Y0
	MOVQ	R8, R11
	MOVQ	R9, R12
	MOVQ	AX, R10

cps_rows1:
	MOVLQSX	(R12), DX
	VBROADCASTSS	(SI)(DX*4), Y4
	VMOVUPS	(R11), Y8
	VMULPS	Y8, Y4, Y4
	VADDPS	Y4, Y0, Y0
	ADDQ	$32, R11
	ADDQ	$4, R12
	DECQ	R10
	JNZ	cps_rows1
	VMOVUPS	Y0, (DI)
	ADDQ	$32, DI
	ADDQ	R13, SI
	DECQ	CX
	JMP	cps_tail

cps_done:
	VZEROUPPER
	RET

// func convPackedSpanFMA(y, x, w []float32, xoff []int32, rows, pixStride, npix int)
TEXT ·convPackedSpanFMA(SB), NOSPLIT, $0-120
	MOVQ	y_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	w_base+48(FP), R8
	MOVQ	xoff_base+72(FP), R9
	MOVQ	rows+96(FP), AX
	MOVQ	pixStride+104(FP), R13
	SHLQ	$2, R13
	LEAQ	(R13)(R13*2), R14
	MOVQ	npix+112(FP), CX

cpf_block4:
	CMPQ	CX, $4
	JL	cpf_tail
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	MOVQ	R8, R11
	MOVQ	R9, R12
	MOVQ	AX, R10

cpf_rows4:
	MOVLQSX	(R12), DX
	LEAQ	(SI)(DX*4), BX
	VBROADCASTSS	(BX), Y4
	VBROADCASTSS	(BX)(R13*1), Y5
	VBROADCASTSS	(BX)(R13*2), Y6
	VBROADCASTSS	(BX)(R14*1), Y7
	VMOVUPS	(R11), Y8
	VFMADD231PS	Y8, Y4, Y0
	VFMADD231PS	Y8, Y5, Y1
	VFMADD231PS	Y8, Y6, Y2
	VFMADD231PS	Y8, Y7, Y3
	ADDQ	$32, R11
	ADDQ	$4, R12
	DECQ	R10
	JNZ	cpf_rows4
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, DI
	LEAQ	(SI)(R13*4), SI
	SUBQ	$4, CX
	JMP	cpf_block4

cpf_tail:
	TESTQ	CX, CX
	JZ	cpf_done
	VXORPS	Y0, Y0, Y0
	MOVQ	R8, R11
	MOVQ	R9, R12
	MOVQ	AX, R10

cpf_rows1:
	MOVLQSX	(R12), DX
	VBROADCASTSS	(SI)(DX*4), Y4
	VMOVUPS	(R11), Y8
	VFMADD231PS	Y8, Y4, Y0
	ADDQ	$32, R11
	ADDQ	$4, R12
	DECQ	R10
	JNZ	cpf_rows1
	VMOVUPS	Y0, (DI)
	ADDQ	$32, DI
	ADDQ	R13, SI
	DECQ	CX
	JMP	cpf_tail

cpf_done:
	VZEROUPPER
	RET

// Elementwise span kernels for ReLU and BatchNorm2d. Each processes the
// whole 8-float vectors of its span (16-float groups for the reductions)
// and leaves the tail to its *Generic fallback, which the Go dispatcher
// calls; lengths are the last slice argument's unless noted.

// func reluAVX2(y, x []float32, cap float32)
// y[i] = min(max(x[i], 0), cap). VMAXPS returns its second source when
// either operand is NaN or both are zero, so NaN and -0 become +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-52
	MOVQ	y_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	x_len+32(FP), CX
	VBROADCASTSS	cap+48(FP), Y15
	VXORPS	Y14, Y14, Y14

relu_loop32:
	CMPQ	CX, $32
	JL	relu_loop8
	VMOVUPS	(SI), Y0
	VMOVUPS	32(SI), Y1
	VMOVUPS	64(SI), Y2
	VMOVUPS	96(SI), Y3
	VMAXPS	Y14, Y0, Y0
	VMAXPS	Y14, Y1, Y1
	VMAXPS	Y14, Y2, Y2
	VMAXPS	Y14, Y3, Y3
	VMINPS	Y15, Y0, Y0
	VMINPS	Y15, Y1, Y1
	VMINPS	Y15, Y2, Y2
	VMINPS	Y15, Y3, Y3
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, SI
	ADDQ	$128, DI
	SUBQ	$32, CX
	JMP	relu_loop32

relu_loop8:
	CMPQ	CX, $8
	JL	relu_done
	VMOVUPS	(SI), Y0
	VMAXPS	Y14, Y0, Y0
	VMINPS	Y15, Y0, Y0
	VMOVUPS	Y0, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	relu_loop8

relu_done:
	VZEROUPPER
	RET

// func reluGateAVX2(dx, dy, y []float32)
// dx[i] = dy[i] where 0 < y[i], else +0: an ordered-quiet compare mask
// ANDed with the gradient.
TEXT ·reluGateAVX2(SB), NOSPLIT, $0-72
	MOVQ	dx_base+0(FP), DI
	MOVQ	dy_base+24(FP), SI
	MOVQ	y_base+48(FP), BX
	MOVQ	y_len+56(FP), CX
	VXORPS	Y14, Y14, Y14

gate_loop32:
	CMPQ	CX, $32
	JL	gate_loop8
	VCMPPS	$0x11, (BX), Y14, Y0
	VCMPPS	$0x11, 32(BX), Y14, Y1
	VCMPPS	$0x11, 64(BX), Y14, Y2
	VCMPPS	$0x11, 96(BX), Y14, Y3
	VANDPS	(SI), Y0, Y0
	VANDPS	32(SI), Y1, Y1
	VANDPS	64(SI), Y2, Y2
	VANDPS	96(SI), Y3, Y3
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, BX
	ADDQ	$128, SI
	ADDQ	$128, DI
	SUBQ	$32, CX
	JMP	gate_loop32

gate_loop8:
	CMPQ	CX, $8
	JL	gate_done
	VCMPPS	$0x11, (BX), Y14, Y0
	VANDPS	(SI), Y0, Y0
	VMOVUPS	Y0, (DI)
	ADDQ	$32, BX
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	gate_loop8

gate_done:
	VZEROUPPER
	RET

// func reluCapGateAVX2(dx, dy, y []float32, cap float32)
// dx[i] = dy[i] where 0 < y[i] < cap, else +0.
TEXT ·reluCapGateAVX2(SB), NOSPLIT, $0-76
	MOVQ	dx_base+0(FP), DI
	MOVQ	dy_base+24(FP), SI
	MOVQ	y_base+48(FP), BX
	MOVQ	y_len+56(FP), CX
	VBROADCASTSS	cap+72(FP), Y15
	VXORPS	Y14, Y14, Y14

cgate_loop16:
	CMPQ	CX, $16
	JL	cgate_loop8
	VMOVUPS	(BX), Y4
	VMOVUPS	32(BX), Y5
	VCMPPS	$0x11, Y4, Y14, Y0
	VCMPPS	$0x11, Y5, Y14, Y1
	VCMPPS	$0x11, Y15, Y4, Y4
	VCMPPS	$0x11, Y15, Y5, Y5
	VANDPS	Y4, Y0, Y0
	VANDPS	Y5, Y1, Y1
	VANDPS	(SI), Y0, Y0
	VANDPS	32(SI), Y1, Y1
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	ADDQ	$64, BX
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$16, CX
	JMP	cgate_loop16

cgate_loop8:
	CMPQ	CX, $8
	JL	cgate_done
	VMOVUPS	(BX), Y4
	VCMPPS	$0x11, Y4, Y14, Y0
	VCMPPS	$0x11, Y15, Y4, Y4
	VANDPS	Y4, Y0, Y0
	VANDPS	(SI), Y0, Y0
	VMOVUPS	Y0, (DI)
	ADDQ	$32, BX
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	cgate_loop8

cgate_done:
	VZEROUPPER
	RET

// func bnNormAVX2(y, xh, x []float32, mean, inv, gamma, beta float32)
// xh[i] = (x[i]-mean)*inv; y[i] = gamma*xh[i] + beta.
TEXT ·bnNormAVX2(SB), NOSPLIT, $0-88
	MOVQ	y_base+0(FP), DI
	MOVQ	xh_base+24(FP), R8
	MOVQ	x_base+48(FP), SI
	MOVQ	x_len+56(FP), CX
	VBROADCASTSS	mean+72(FP), Y12
	VBROADCASTSS	inv+76(FP), Y13
	VBROADCASTSS	gamma+80(FP), Y14
	VBROADCASTSS	beta+84(FP), Y15

bnn_loop32:
	CMPQ	CX, $32
	JL	bnn_loop8
	VMOVUPS	(SI), Y0
	VMOVUPS	32(SI), Y1
	VMOVUPS	64(SI), Y2
	VMOVUPS	96(SI), Y3
	VSUBPS	Y12, Y0, Y0
	VSUBPS	Y12, Y1, Y1
	VSUBPS	Y12, Y2, Y2
	VSUBPS	Y12, Y3, Y3
	VMULPS	Y13, Y0, Y0
	VMULPS	Y13, Y1, Y1
	VMULPS	Y13, Y2, Y2
	VMULPS	Y13, Y3, Y3
	VMOVUPS	Y0, (R8)
	VMOVUPS	Y1, 32(R8)
	VMOVUPS	Y2, 64(R8)
	VMOVUPS	Y3, 96(R8)
	VMULPS	Y14, Y0, Y0
	VMULPS	Y14, Y1, Y1
	VMULPS	Y14, Y2, Y2
	VMULPS	Y14, Y3, Y3
	VADDPS	Y15, Y0, Y0
	VADDPS	Y15, Y1, Y1
	VADDPS	Y15, Y2, Y2
	VADDPS	Y15, Y3, Y3
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, SI
	ADDQ	$128, R8
	ADDQ	$128, DI
	SUBQ	$32, CX
	JMP	bnn_loop32

bnn_loop8:
	CMPQ	CX, $8
	JL	bnn_done
	VMOVUPS	(SI), Y0
	VSUBPS	Y12, Y0, Y0
	VMULPS	Y13, Y0, Y0
	VMOVUPS	Y0, (R8)
	VMULPS	Y14, Y0, Y0
	VADDPS	Y15, Y0, Y0
	VMOVUPS	Y0, (DI)
	ADDQ	$32, SI
	ADDQ	$32, R8
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	bnn_loop8

bnn_done:
	VZEROUPPER
	RET

// func bnApplyAVX2(dx, dy, xh []float32, k, mDy, mDyXh float32)
// dx[i] = k * ((dy[i]-mDy) - xh[i]*mDyXh); the length is len(dy).
TEXT ·bnApplyAVX2(SB), NOSPLIT, $0-84
	MOVQ	dx_base+0(FP), DI
	MOVQ	dy_base+24(FP), SI
	MOVQ	dy_len+32(FP), CX
	MOVQ	xh_base+48(FP), BX
	VBROADCASTSS	k+72(FP), Y13
	VBROADCASTSS	mDy+76(FP), Y14
	VBROADCASTSS	mDyXh+80(FP), Y15

bna_loop32:
	CMPQ	CX, $32
	JL	bna_loop8
	VMOVUPS	(SI), Y0
	VMOVUPS	32(SI), Y1
	VMOVUPS	64(SI), Y2
	VMOVUPS	96(SI), Y3
	VMULPS	(BX), Y15, Y4
	VMULPS	32(BX), Y15, Y5
	VMULPS	64(BX), Y15, Y6
	VMULPS	96(BX), Y15, Y7
	VSUBPS	Y14, Y0, Y0
	VSUBPS	Y14, Y1, Y1
	VSUBPS	Y14, Y2, Y2
	VSUBPS	Y14, Y3, Y3
	VSUBPS	Y4, Y0, Y0
	VSUBPS	Y5, Y1, Y1
	VSUBPS	Y6, Y2, Y2
	VSUBPS	Y7, Y3, Y3
	VMULPS	Y13, Y0, Y0
	VMULPS	Y13, Y1, Y1
	VMULPS	Y13, Y2, Y2
	VMULPS	Y13, Y3, Y3
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, SI
	ADDQ	$128, BX
	ADDQ	$128, DI
	SUBQ	$32, CX
	JMP	bna_loop32

bna_loop8:
	CMPQ	CX, $8
	JL	bna_done
	VMOVUPS	(SI), Y0
	VMULPS	(BX), Y15, Y4
	VSUBPS	Y14, Y0, Y0
	VSUBPS	Y4, Y0, Y0
	VMULPS	Y13, Y0, Y0
	VMOVUPS	Y0, (DI)
	ADDQ	$32, SI
	ADDQ	$32, BX
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	bna_loop8

bna_done:
	VZEROUPPER
	RET

// BatchNorm reductions. The 16 float64 lanes live in Y0-Y3 (lanes 0-3,
// 4-7, 8-11, 12-15) for the call and in the caller's array between calls;
// VCVTPS2PD widens four float32 elements exactly, so element i of the span
// adds into lane i%16 just as the fallback's scalar loop does.

// func sumSpanAVX2(acc *[16]float64, x []float32)
TEXT ·sumSpanAVX2(SB), NOSPLIT, $0-32
	MOVQ	acc+0(FP), DI
	MOVQ	x_base+8(FP), SI
	MOVQ	x_len+16(FP), CX
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3

sum_loop16:
	CMPQ	CX, $16
	JL	sum_done
	VCVTPS2PD	(SI), Y4
	VCVTPS2PD	16(SI), Y5
	VCVTPS2PD	32(SI), Y6
	VCVTPS2PD	48(SI), Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	ADDQ	$64, SI
	SUBQ	$16, CX
	JMP	sum_loop16

sum_done:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VZEROUPPER
	RET

// func sqDevSpanAVX2(acc *[16]float64, x []float32, mean float32)
// The deviation x-mean is a float32 subtraction; its float64 square is
// exact.
TEXT ·sqDevSpanAVX2(SB), NOSPLIT, $0-36
	MOVQ	acc+0(FP), DI
	MOVQ	x_base+8(FP), SI
	MOVQ	x_len+16(FP), CX
	VBROADCASTSS	mean+32(FP), X15
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3

sq_loop16:
	CMPQ	CX, $16
	JL	sq_done
	VMOVUPS	(SI), X4
	VMOVUPS	16(SI), X5
	VMOVUPS	32(SI), X6
	VMOVUPS	48(SI), X7
	VSUBPS	X15, X4, X4
	VSUBPS	X15, X5, X5
	VSUBPS	X15, X6, X6
	VSUBPS	X15, X7, X7
	VCVTPS2PD	X4, Y4
	VCVTPS2PD	X5, Y5
	VCVTPS2PD	X6, Y6
	VCVTPS2PD	X7, Y7
	VMULPD	Y4, Y4, Y4
	VMULPD	Y5, Y5, Y5
	VMULPD	Y6, Y6, Y6
	VMULPD	Y7, Y7, Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	ADDQ	$64, SI
	SUBQ	$16, CX
	JMP	sq_loop16

sq_done:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VZEROUPPER
	RET

// func dyXhSpanAVX2(accDy, accDyXh *[16]float64, dy, xh []float32)
// Sums dy into accDy's lanes and dy*xh (an exact float64 product) into
// accDyXh's; the length is len(dy).
TEXT ·dyXhSpanAVX2(SB), NOSPLIT, $0-64
	MOVQ	accDy+0(FP), DI
	MOVQ	accDyXh+8(FP), R8
	MOVQ	dy_base+16(FP), SI
	MOVQ	dy_len+24(FP), CX
	MOVQ	xh_base+40(FP), BX
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	VMOVUPD	(R8), Y4
	VMOVUPD	32(R8), Y5
	VMOVUPD	64(R8), Y6
	VMOVUPD	96(R8), Y7

dyxh_loop16:
	CMPQ	CX, $16
	JL	dyxh_done
	VCVTPS2PD	(SI), Y8
	VCVTPS2PD	16(SI), Y9
	VCVTPS2PD	32(SI), Y10
	VCVTPS2PD	48(SI), Y11
	VCVTPS2PD	(BX), Y12
	VCVTPS2PD	16(BX), Y13
	VCVTPS2PD	32(BX), Y14
	VCVTPS2PD	48(BX), Y15
	VADDPD	Y8, Y0, Y0
	VADDPD	Y9, Y1, Y1
	VADDPD	Y10, Y2, Y2
	VADDPD	Y11, Y3, Y3
	VMULPD	Y8, Y12, Y12
	VMULPD	Y9, Y13, Y13
	VMULPD	Y10, Y14, Y14
	VMULPD	Y11, Y15, Y15
	VADDPD	Y12, Y4, Y4
	VADDPD	Y13, Y5, Y5
	VADDPD	Y14, Y6, Y6
	VADDPD	Y15, Y7, Y7
	ADDQ	$64, SI
	ADDQ	$64, BX
	SUBQ	$16, CX
	JMP	dyxh_loop16

dyxh_done:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VMOVUPD	Y4, (R8)
	VMOVUPD	Y5, 32(R8)
	VMOVUPD	Y6, 64(R8)
	VMOVUPD	Y7, 96(R8)
	VZEROUPPER
	RET
