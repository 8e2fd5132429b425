package tensor

import "math"

// Span kernels for the elementwise layers (ReLU, BatchNorm2d). Each one
// but Scale has an AVX2 body on amd64 and a *Generic scalar fallback in
// simd_generic.go that performs the same correctly-rounded float32
// operations in the same order (reductions: into the same float64 lanes),
// so every build produces the same bits. The vector bodies cover whole
// vectors; the dispatchers in simd_amd64.go finish the tail with the
// fallback.

// bnLanes is the number of float64 accumulators the BatchNorm reductions
// spread a channel over: element i of every row adds into lane i%bnLanes,
// and the lanes are combined once, in ascending order, by combineLanes.
const bnLanes = 16

// ReLU writes y[i] = min(max(x[i], 0), cap) over len(x) elements; cap 0
// means uncapped. NaN and -0 map to +0, and with a cap every x >= cap
// (+Inf included) maps to cap.
func ReLU(y, x []float32, cap float32) {
	if cap == 0 {
		cap = float32(math.Inf(1)) // min(v, +Inf) == v for every max(x, 0)
	}
	reluSpan(y, x, cap)
}

// ReLUGate is ReLU's backward pass on its saved output y: dx[i] = dy[i]
// where 0 < y[i] (and y[i] < cap when cap is nonzero), else +0.
func ReLUGate(dx, dy, y []float32, cap float32) {
	if cap == 0 {
		reluGateSpan(dx, dy, y)
		return
	}
	reluCapGateSpan(dx, dy, y, cap)
}

// BNNormalize is BatchNorm's forward pass over one span of a channel:
// xh[i] = (x[i]-mean)*inv and y[i] = gamma*xh[i] + beta.
func BNNormalize(y, xh, x []float32, mean, inv, gamma, beta float32) {
	bnNormSpan(y, xh, x, mean, inv, gamma, beta)
}

// BNApply is BatchNorm's batch-statistics input gradient over one span of
// a channel: dx[i] = k * ((dy[i]-mDy) - xh[i]*mDyXh), with k = γ·invStd.
func BNApply(dx, dy, xh []float32, k, mDy, mDyXh float32) {
	bnApplySpan(dx, dy, xh, k, mDy, mDyXh)
}

// Scale writes dst[i] = a * src[i] over len(src) elements. It is
// BatchNorm's input gradient under constant statistics, off the adaptation
// paths, so it has no vector body.
func Scale(dst, src []float32, a float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = a * v
	}
}

// ChannelSum returns the float64 sum of the rows spans
// x[r*stride : r*stride+plane] — one channel of an NCHW tensor when x
// starts at the channel's first plane and stride is C*H*W. The sum is
// kept in bnLanes fixed lanes across all rows and combined once, so it is
// the same for every build and worker count. It differs from a serial
// float64 sum only by float64 rounding.
func ChannelSum(x []float32, rows, stride, plane int) float64 {
	var acc [bnLanes]float64
	for r := 0; r < rows; r++ {
		sumSpan(&acc, x[r*stride:r*stride+plane])
	}
	return combineLanes(&acc)
}

// ChannelSqDev returns the float64 sum of float64(x-mean)² over the same
// rows as ChannelSum, where x-mean is a float32 subtraction.
func ChannelSqDev(x []float32, mean float32, rows, stride, plane int) float64 {
	var acc [bnLanes]float64
	for r := 0; r < rows; r++ {
		sqDevSpan(&acc, x[r*stride:r*stride+plane], mean)
	}
	return combineLanes(&acc)
}

// ChannelDyXh returns the float64 sums of dy and of dy·xh over the same
// rows of dy and xh, as ChannelSum lays them out.
func ChannelDyXh(dy, xh []float32, rows, stride, plane int) (sumDy, sumDyXh float64) {
	var accDy, accDyXh [bnLanes]float64
	for r := 0; r < rows; r++ {
		lo := r * stride
		dyXhSpan(&accDy, &accDyXh, dy[lo:lo+plane], xh[lo:lo+plane])
	}
	return combineLanes(&accDy), combineLanes(&accDyXh)
}

// combineLanes combines the reduction lanes in ascending order.
func combineLanes(acc *[bnLanes]float64) float64 {
	s := float64(0)
	for _, v := range acc {
		s += v
	}
	return s
}
