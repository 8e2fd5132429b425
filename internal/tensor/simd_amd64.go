//go:build amd64

package tensor

// CPUID-based feature detection for the AVX2 kernels in simd_amd64.s.
// AVX2 requires CPU support (leaf 7 EBX bit 5), AVX+OSXSAVE (leaf 1 ECX
// bits 28/27), and the OS saving XMM+YMM state (XCR0 bits 1 and 2).

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func axpyAVX2(a float32, x, y []float32)

//go:noescape
func dotAVX2(x, y []float32) float32

//go:noescape
func convPackedSpanAVX2(y, x, w []float32, xoff []int32, rows, pixStride, npix int)

//go:noescape
func convPackedSpanFMA(y, x, w []float32, xoff []int32, rows, pixStride, npix int)

//go:noescape
func reluAVX2(y, x []float32, cap float32)

//go:noescape
func reluGateAVX2(dx, dy, y []float32)

//go:noescape
func reluCapGateAVX2(dx, dy, y []float32, cap float32)

//go:noescape
func bnNormAVX2(y, xh, x []float32, mean, inv, gamma, beta float32)

//go:noescape
func bnApplyAVX2(dx, dy, xh []float32, k, mDy, mDyXh float32)

//go:noescape
func sumSpanAVX2(acc *[bnLanes]float64, x []float32)

//go:noescape
func sqDevSpanAVX2(acc *[bnLanes]float64, x []float32, mean float32)

//go:noescape
func dyXhSpanAVX2(accDy, accDyXh *[bnLanes]float64, dy, xh []float32)

var hasAVX2, hasFMA = func() (bool, bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if c1&osxsave == 0 || c1&avx == 0 {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0, b7&avx2 != 0 && c1&fma != 0
}()

// avx2HW reports whether the AVX2 kernels are dispatched.
func avx2HW() bool { return hasAVX2 }

// fmaHW reports whether this build has a fused-multiply-add conv kernel
// the FMA opt-in can dispatch to.
func fmaHW() bool { return hasFMA }

// convPackedSpan computes npix packed output pixels (8 output-channel
// lanes each) of one conv output row. The AVX2 variant uses separate
// VMULPS/VADDPS and is bit-identical to the generic kernel; the FMA
// variant (opt-in via SetFMA) fuses the two roundings into one.
func convPackedSpan(y, x, w []float32, xoff []int32, rows, pixStride, npix int) {
	if npix == 0 || rows == 0 {
		return
	}
	_ = y[npix*8-1]
	if hasAVX2 {
		if fmaActive.Load() {
			convPackedSpanFMA(y, x, w, xoff, rows, pixStride, npix)
			return
		}
		convPackedSpanAVX2(y, x, w, xoff, rows, pixStride, npix)
		return
	}
	convPackedSpanGeneric(y, x, w, xoff, rows, pixStride, npix)
}

// axpy computes y[i] += a*x[i] over len(x) elements. The AVX2 path uses
// separate multiply and add instructions, so its results are bit-identical
// to the scalar fallback.
func axpy(a float32, x, y []float32) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	if hasAVX2 {
		axpyAVX2(a, x, y)
		return
	}
	axpyGeneric(a, x, y)
}

// dot returns sum_i x[i]*y[i] over len(x) elements. The AVX2 path reduces
// in a fixed lane order, deterministic for any worker count.
func dot(x, y []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	_ = y[len(x)-1]
	if hasAVX2 {
		return dotAVX2(x, y)
	}
	return dotGeneric(x, y)
}

// vecLen is how many leading elements of an n-element span the AVX2
// bodies cover: whole groups of width (a power of two) when AVX2 is
// dispatched, none otherwise. The dispatchers below run the AVX2 body over
// those elements and the same-order fallback over the rest.
func vecLen(n, width int) int {
	if !hasAVX2 {
		return 0
	}
	return n &^ (width - 1)
}

func reluSpan(y, x []float32, cap float32) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	if v := vecLen(len(x), 8); v > 0 {
		reluAVX2(y, x[:v], cap)
		y, x = y[v:], x[v:]
	}
	if len(x) > 0 {
		reluGeneric(y, x, cap)
	}
}

func reluGateSpan(dx, dy, y []float32) {
	if len(y) == 0 {
		return
	}
	_, _ = dx[len(y)-1], dy[len(y)-1]
	if v := vecLen(len(y), 8); v > 0 {
		reluGateAVX2(dx, dy, y[:v])
		dx, dy, y = dx[v:], dy[v:], y[v:]
	}
	if len(y) > 0 {
		reluGateGeneric(dx, dy, y)
	}
}

func reluCapGateSpan(dx, dy, y []float32, cap float32) {
	if len(y) == 0 {
		return
	}
	_, _ = dx[len(y)-1], dy[len(y)-1]
	if v := vecLen(len(y), 8); v > 0 {
		reluCapGateAVX2(dx, dy, y[:v], cap)
		dx, dy, y = dx[v:], dy[v:], y[v:]
	}
	if len(y) > 0 {
		reluCapGateGeneric(dx, dy, y, cap)
	}
}

func bnNormSpan(y, xh, x []float32, mean, inv, gamma, beta float32) {
	if len(x) == 0 {
		return
	}
	_, _ = y[len(x)-1], xh[len(x)-1]
	if v := vecLen(len(x), 8); v > 0 {
		bnNormAVX2(y, xh, x[:v], mean, inv, gamma, beta)
		y, xh, x = y[v:], xh[v:], x[v:]
	}
	if len(x) > 0 {
		bnNormGeneric(y, xh, x, mean, inv, gamma, beta)
	}
}

func bnApplySpan(dx, dy, xh []float32, k, mDy, mDyXh float32) {
	if len(dy) == 0 {
		return
	}
	_, _ = dx[len(dy)-1], xh[len(dy)-1]
	if v := vecLen(len(dy), 8); v > 0 {
		bnApplyAVX2(dx, dy[:v], xh, k, mDy, mDyXh)
		dx, dy, xh = dx[v:], dy[v:], xh[v:]
	}
	if len(dy) > 0 {
		bnApplyGeneric(dx, dy, xh, k, mDy, mDyXh)
	}
}

// The reductions' AVX2 bodies cover whole 16-element groups, so the
// tail's element j lands in lane j, as in one fallback pass over the span.

func sumSpan(acc *[bnLanes]float64, x []float32) {
	if v := vecLen(len(x), bnLanes); v > 0 {
		sumSpanAVX2(acc, x[:v])
		x = x[v:]
	}
	sumSpanGeneric(acc, x)
}

func sqDevSpan(acc *[bnLanes]float64, x []float32, mean float32) {
	if v := vecLen(len(x), bnLanes); v > 0 {
		sqDevSpanAVX2(acc, x[:v], mean)
		x = x[v:]
	}
	sqDevSpanGeneric(acc, x, mean)
}

func dyXhSpan(accDy, accDyXh *[bnLanes]float64, dy, xh []float32) {
	xh = xh[:len(dy)]
	if v := vecLen(len(dy), bnLanes); v > 0 {
		dyXhSpanAVX2(accDy, accDyXh, dy[:v], xh)
		dy, xh = dy[v:], xh[v:]
	}
	dyXhSpanGeneric(accDy, accDyXh, dy, xh)
}
