package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the ReLU and BatchNorm span kernels: the
// dispatched kernel (AVX2 body plus fallback tail on amd64) against its
// *Generic fallback against a serial oracle of the layer code the kernels
// replaced. Elementwise kernels must agree on every bit; the reductions,
// which sum in fixed lanes instead of one serial chain, must agree with
// the fallback on every bit and with the serial sum to 1 float32 ulp.

// specialF32 are the values whose handling distinguishes a correct ReLU
// or gate from one that is merely close: NaN, both zeros, both infinities,
// denormals, and the cap and its neighbours.
func specialF32(cap float32) []float32 {
	inf := float32(math.Inf(1))
	tiny := math.Float32frombits(1)          // smallest denormal
	bigDen := math.Float32frombits(0x7fffff) // largest denormal
	return []float32{
		float32(math.NaN()), -float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		inf, -inf, tiny, -tiny, bigDen, -bigDen, 1, -1,
		cap, math.Nextafter32(cap, inf), math.Nextafter32(cap, -inf), -cap,
		math.MaxFloat32, -math.MaxFloat32,
	}
}

// mixedF32 returns n values that cycle through the special values from
// offset off, with normal random values in between.
func mixedF32(rng *rand.Rand, n, off int, cap float32) []float32 {
	sp := specialF32(cap)
	v := make([]float32, n)
	for i := range v {
		if (i+off)%3 == 0 {
			v[i] = sp[(i+off)/3%len(sp)]
		} else {
			v[i] = float32(rng.NormFloat64() * 4)
		}
	}
	return v
}

// reluOracle is nn.ReLU's former forward loop: it wrote the pass mask the
// backward pass gated on, and y into a zeroed tensor.
func reluOracle(x []float32, cap float32) (y []float32, mask []bool) {
	y, mask = make([]float32, len(x)), make([]bool, len(x))
	for i, v := range x {
		pass := v > 0 && (cap == 0 || v < cap)
		mask[i] = pass
		if pass {
			y[i] = v
		} else if cap != 0 && v >= cap {
			y[i] = cap
		}
	}
	return y, mask
}

func TestReLUKernelsMatchOracleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 31, 32, 33, 63, 64, 65, 200)
	for _, cap := range []float32{0, 6} {
		kcap := cap
		if kcap == 0 {
			kcap = float32(math.Inf(1))
		}
		for _, n := range lengths {
			// Several phases, so each special value lands in the vector
			// body and in the tail.
			for off := 0; off < 3*len(specialF32(cap)); off += 7 {
				x := mixedF32(rng, n, off, cap)
				dy := mixedF32(rng, n, off+1, cap)
				wantY, mask := reluOracle(x, cap)
				wantDx := make([]float32, n)
				for i, m := range mask {
					if m {
						wantDx[i] = dy[i]
					}
				}

				y, yg := make([]float32, n), make([]float32, n)
				ReLU(y, x, cap)
				if n > 0 {
					reluGeneric(yg, x, kcap)
				}
				if !bitsEqual(y, wantY) || !bitsEqual(yg, wantY) {
					t.Fatalf("cap=%v n=%d off=%d: ReLU forward differs from the oracle\nx=%v\nwant=%v\ngot=%v\ngeneric=%v",
						cap, n, off, x, wantY, y, yg)
				}

				dx, dxg := make([]float32, n), make([]float32, n)
				for i := range dx { // gates must write every element
					dx[i], dxg[i] = float32(math.NaN()), float32(math.NaN())
				}
				ReLUGate(dx, dy, y, cap)
				if n > 0 {
					if cap == 0 {
						reluGateGeneric(dxg, dy, y)
					} else {
						reluCapGateGeneric(dxg, dy, y, cap)
					}
				}
				if !bitsEqual(dx, wantDx) || !bitsEqual(dxg, wantDx) {
					t.Fatalf("cap=%v n=%d off=%d: ReLU gate differs from the mask oracle\ny=%v\ndy=%v\nwant=%v\ngot=%v\ngeneric=%v",
						cap, n, off, y, dy, wantDx, dx, dxg)
				}
			}
		}
	}
}

// bnNormOracle and bnApplyOracle are BatchNorm2d's former per-element
// loop bodies. The explicit float32 conversions spell out the per-operation
// rounding those loops had on amd64, where Go does not fuse multiply-add.
func bnNormOracle(x []float32, mean, inv, g, b float32) (y, xh []float32) {
	y, xh = make([]float32, len(x)), make([]float32, len(x))
	for i, v := range x {
		h := (v - mean) * inv
		xh[i] = h
		y[i] = float32(g*h) + b
	}
	return y, xh
}

func bnApplyOracle(dy, xh []float32, g, inv, mDy, mDyXh float32) []float32 {
	dx := make([]float32, len(dy))
	for i, d := range dy {
		dx[i] = g * inv * (d - mDy - float32(xh[i]*mDyXh))
	}
	return dx
}

func TestBNElementwiseKernelsMatchOracleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 4; trial++ {
			x, dy, xh := make([]float32, n), make([]float32, n), make([]float32, n)
			off := float64(trial*trial) * 30
			for i := range x {
				x[i] = float32(off + rng.NormFloat64()*math.Pow(10, float64(trial-1)))
				dy[i] = float32(rng.NormFloat64() * 1e-3)
				xh[i] = float32(rng.NormFloat64())
			}
			mean, inv := float32(off+rng.NormFloat64()), float32(rng.ExpFloat64())
			g, b := float32(rng.NormFloat64()), float32(rng.NormFloat64())
			mDy, mDyXh := float32(rng.NormFloat64()*1e-4), float32(rng.NormFloat64()*1e-4)

			wantY, wantXh := bnNormOracle(x, mean, inv, g, b)
			y, gotXh := make([]float32, n), make([]float32, n)
			BNNormalize(y, gotXh, x, mean, inv, g, b)
			yg, xhg := make([]float32, n), make([]float32, n)
			if n > 0 {
				bnNormGeneric(yg, xhg, x, mean, inv, g, b)
			}
			if !bitsEqual(y, wantY) || !bitsEqual(gotXh, wantXh) || !bitsEqual(yg, wantY) || !bitsEqual(xhg, wantXh) {
				t.Fatalf("n=%d trial=%d: BNNormalize differs from the oracle", n, trial)
			}

			k := g * inv
			wantDx := bnApplyOracle(dy, xh, g, inv, mDy, mDyXh)
			dx, dxg := make([]float32, n), make([]float32, n)
			BNApply(dx, dy, xh, k, mDy, mDyXh)
			if n > 0 {
				bnApplyGeneric(dxg, dy, xh, k, mDy, mDyXh)
			}
			if !bitsEqual(dx, wantDx) || !bitsEqual(dxg, wantDx) {
				t.Fatalf("n=%d trial=%d: BNApply differs from the oracle", n, trial)
			}

			wantS := make([]float32, n)
			for i, d := range dy {
				wantS[i] = g * inv * d
			}
			s := make([]float32, n)
			Scale(s, dy, k)
			if !bitsEqual(s, wantS) {
				t.Fatalf("n=%d trial=%d: Scale differs from the oracle", n, trial)
			}
		}
	}
}

// serialChannelStats is BatchNorm2d's former statistics loop for one
// channel: a single float64 chain over the rows.
func serialChannelStats(x []float32, rows, stride, plane int) (mean, varv float32) {
	cnt := rows * plane
	s := float64(0)
	for r := 0; r < rows; r++ {
		for _, v := range x[r*stride : r*stride+plane] {
			s += float64(v)
		}
	}
	mean = float32(s / float64(cnt))
	s2 := float64(0)
	for r := 0; r < rows; r++ {
		for _, v := range x[r*stride : r*stride+plane] {
			d := float64(v - mean)
			s2 += d * d
		}
	}
	return mean, float32(s2 / float64(cnt))
}

func serialChannelDyXh(dy, xh []float32, rows, stride, plane int) (sumDy, sumDyXh float32) {
	var a, b float64
	for r := 0; r < rows; r++ {
		lo := r * stride
		for i := lo; i < lo+plane; i++ {
			a += float64(dy[i])
			b += float64(dy[i]) * float64(xh[i])
		}
	}
	return float32(a), float32(b)
}

// ulpDiff is the distance between two finite float32 values in units in
// the last place.
func ulpDiff(a, b float32) int64 {
	ord := func(f float32) int64 {
		u := int64(math.Float32bits(f))
		if u&(1<<31) != 0 {
			return -(u &^ (1 << 31))
		}
		return u
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return d
}

// TestBNReductionsWithinOneULPOfSerial sums channels of 50 rows of
// 64/256/1024 elements (BN layers at repro scale), with offsets up to
// 1e4 and scales from 1e-3 to 1e3, and checks the lane sums against the
// serial float64 chain after the float32 rounding the layer applies.
func TestBNReductionsWithinOneULPOfSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const rows, channels, trials = 50, 4, 25 // 300 channels in all
	var flips int
	for _, plane := range []int{64, 256, 1024} {
		stride := channels * plane
		x := make([]float32, rows*stride)
		dy := make([]float32, rows*stride)
		xh := make([]float32, rows*stride)
		for trial := 0; trial < trials; trial++ {
			off := math.Pow(10, float64(trial%5)) * float64(trial%3-1)
			scale := math.Pow(10, float64(trial%7)-3)
			for i := range x {
				x[i] = float32(off + rng.NormFloat64()*scale)
				dy[i] = float32(rng.NormFloat64() * scale * 1e-2)
				xh[i] = float32(rng.NormFloat64())
			}
			for c := 0; c < channels; c++ {
				xc := x[c*plane:]
				wantMean, wantVar := serialChannelStats(xc, rows, stride, plane)
				cnt := float64(rows * plane)
				mean := float32(ChannelSum(xc, rows, stride, plane) / cnt)
				varv := float32(ChannelSqDev(xc, wantMean, rows, stride, plane) / cnt)
				if d := ulpDiff(mean, wantMean); d > 1 {
					t.Fatalf("plane=%d trial=%d c=%d: mean %v vs serial %v (%d ulp)", plane, trial, c, mean, wantMean, d)
				}
				if d := ulpDiff(varv, wantVar); d > 1 {
					t.Fatalf("plane=%d trial=%d c=%d: var %v vs serial %v (%d ulp)", plane, trial, c, varv, wantVar, d)
				}
				wDy, wDyXh := serialChannelDyXh(dy[c*plane:], xh[c*plane:], rows, stride, plane)
				a, b := ChannelDyXh(dy[c*plane:], xh[c*plane:], rows, stride, plane)
				if ulpDiff(float32(a), wDy) > 1 || ulpDiff(float32(b), wDyXh) > 1 {
					t.Fatalf("plane=%d trial=%d c=%d: sumDy %v/%v sumDyXh %v/%v", plane, trial, c, float32(a), wDy, float32(b), wDyXh)
				}
				for _, pair := range [][2]float32{{mean, wantMean}, {varv, wantVar}, {float32(a), wDy}, {float32(b), wDyXh}} {
					if pair[0] != pair[1] {
						flips++
					}
				}
			}
		}
	}
	t.Logf("%d of %d float32 statistics differ from the serial sum by 1 ulp", flips, 4*3*trials*channels)
}

// TestBNReductionsMatchGenericBitwise: the dispatched reductions and the
// fallback put every element in the same lane, so they agree on every
// bit, for every span length (vector groups plus tails) and row count.
// The values span 2^-60..2^60, so the float64 adds round and an element
// summed into the wrong lane changes the result.
func TestBNReductionsMatchGenericBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	wide := func() float32 { return float32(math.Ldexp(rng.NormFloat64(), rng.Intn(121)-60)) }
	for _, plane := range []int{1, 3, 7, 8, 15, 16, 17, 31, 33, 64, 100} {
		for _, rows := range []int{1, 2, 5} {
			stride := 2*plane + 3
			x := make([]float32, rows*stride)
			xh := make([]float32, rows*stride)
			for i := range x {
				x[i], xh[i] = wide(), wide()
			}
			mean := wide()
			var gs, gq, gd, gdx [bnLanes]float64
			for r := 0; r < rows; r++ {
				lo := r * stride
				sumSpanGeneric(&gs, x[lo:lo+plane])
				sqDevSpanGeneric(&gq, x[lo:lo+plane], mean)
				dyXhSpanGeneric(&gd, &gdx, x[lo:lo+plane], xh[lo:lo+plane])
			}
			s := ChannelSum(x, rows, stride, plane)
			q := ChannelSqDev(x, mean, rows, stride, plane)
			d, dx := ChannelDyXh(x, xh, rows, stride, plane)
			want := []float64{combineLanes(&gs), combineLanes(&gq), combineLanes(&gd), combineLanes(&gdx)}
			for i, got := range []float64{s, q, d, dx} {
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("plane=%d rows=%d: reduction %d = %v, fallback %v", plane, rows, i, got, want[i])
				}
			}
		}
	}
}
