//go:build !amd64

package tensor

// Portable fallbacks for architectures without hand-written kernels.

func axpy(a float32, x, y []float32) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	axpyGeneric(a, x, y)
}

func dot(x, y []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	_ = y[len(x)-1]
	return dotGeneric(x, y)
}

// avx2HW reports whether the AVX2 kernels are dispatched; only amd64
// has them.
func avx2HW() bool { return false }

// fmaHW reports whether this build has a fused-multiply-add conv kernel;
// only amd64 does.
func fmaHW() bool { return false }

func convPackedSpan(y, x, w []float32, xoff []int32, rows, pixStride, npix int) {
	if npix == 0 || rows == 0 {
		return
	}
	convPackedSpanGeneric(y, x, w, xoff, rows, pixStride, npix)
}

func reluSpan(y, x []float32, cap float32) {
	if len(x) > 0 {
		reluGeneric(y, x, cap)
	}
}

func reluGateSpan(dx, dy, y []float32) {
	if len(y) > 0 {
		reluGateGeneric(dx, dy, y)
	}
}

func reluCapGateSpan(dx, dy, y []float32, cap float32) {
	if len(y) > 0 {
		reluCapGateGeneric(dx, dy, y, cap)
	}
}

func bnNormSpan(y, xh, x []float32, mean, inv, gamma, beta float32) {
	if len(x) > 0 {
		bnNormGeneric(y, xh, x, mean, inv, gamma, beta)
	}
}

func bnApplySpan(dx, dy, xh []float32, k, mDy, mDyXh float32) {
	if len(dy) > 0 {
		bnApplyGeneric(dx, dy, xh, k, mDy, mDyXh)
	}
}

func sumSpan(acc *[bnLanes]float64, x []float32) { sumSpanGeneric(acc, x) }

func sqDevSpan(acc *[bnLanes]float64, x []float32, mean float32) {
	sqDevSpanGeneric(acc, x, mean)
}

func dyXhSpan(accDy, accDyXh *[bnLanes]float64, dy, xh []float32) {
	dyXhSpanGeneric(accDy, accDyXh, dy, xh)
}
