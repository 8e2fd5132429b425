package tensor

// Scalar reference kernels. axpyGeneric is bit-identical to the AVX2 path
// (both perform one rounded multiply and one rounded add per element; the
// float32 conversion keeps compilers that fuse x*y+z, as arm64's does,
// from dropping the multiply's rounding);
// dotGeneric accumulates left-to-right, which the vector path does not,
// so dot results are deterministic per build rather than per architecture.

func axpyGeneric(a float32, x, y []float32) {
	_ = y[len(x)-1]
	for i, xv := range x {
		y[i] += float32(a * xv)
	}
}

func dotGeneric(x, y []float32) float32 {
	_ = y[len(x)-1]
	s := float32(0)
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// The elementwise fallbacks below are the oracles of their AVX2 bodies:
// each performs the same correctly-rounded float32 operations in the same
// order. Products that feed an add or subtract are wrapped in an explicit
// float32 conversion, which the Go spec defines to round, so compilers
// that fuse x*y+z (arm64 does by default) cannot change a bit.

func reluGeneric(y, x []float32, cap float32) {
	_ = y[len(x)-1]
	for i, v := range x {
		if !(v > 0) { // NaN and -0 become +0
			v = 0
		}
		if !(v < cap) {
			v = cap
		}
		y[i] = v
	}
}

func reluGateGeneric(dx, dy, y []float32) {
	_, _ = dx[len(y)-1], dy[len(y)-1]
	for i, v := range y {
		d := float32(0)
		if 0 < v {
			d = dy[i]
		}
		dx[i] = d
	}
}

func reluCapGateGeneric(dx, dy, y []float32, cap float32) {
	_, _ = dx[len(y)-1], dy[len(y)-1]
	for i, v := range y {
		d := float32(0)
		if 0 < v && v < cap {
			d = dy[i]
		}
		dx[i] = d
	}
}

func bnNormGeneric(y, xh, x []float32, mean, inv, gamma, beta float32) {
	_, _ = y[len(x)-1], xh[len(x)-1]
	for i, v := range x {
		h := (v - mean) * inv
		xh[i] = h
		y[i] = float32(gamma*h) + beta
	}
}

func bnApplyGeneric(dx, dy, xh []float32, k, mDy, mDyXh float32) {
	_, _ = dx[len(dy)-1], xh[len(dy)-1]
	for i, d := range dy {
		dx[i] = k * ((d - mDy) - float32(xh[i]*mDyXh))
	}
}

// The reduction fallbacks add element i of the span into lane i%bnLanes.
// A float64 product of two float32 values is exact, so fusing it into the
// add would not change a bit either.

func sumSpanGeneric(acc *[bnLanes]float64, x []float32) {
	for i, v := range x {
		acc[i&(bnLanes-1)] += float64(v)
	}
}

func sqDevSpanGeneric(acc *[bnLanes]float64, x []float32, mean float32) {
	for i, v := range x {
		d := float64(v - mean)
		acc[i&(bnLanes-1)] += d * d
	}
}

func dyXhSpanGeneric(accDy, accDyXh *[bnLanes]float64, dy, xh []float32) {
	xh = xh[:len(dy)]
	for i, d := range dy {
		accDy[i&(bnLanes-1)] += float64(d)
		accDyXh[i&(bnLanes-1)] += float64(d) * float64(xh[i])
	}
}
