package nn

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/tensor"
)

// The serial BatchNorm loops the span kernels replaced, kept as the
// layer-level oracle: one float64 chain per channel statistic and one
// scalar loop per pass. The float32 conversions around products spell out
// the per-operation rounding the loops had on amd64, where Go does not
// fuse multiply-add.

func serialBNForward(b *BatchNorm2d, x *tensor.Tensor, train bool) (y *tensor.Tensor, xhat, invStd []float32) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	plane := h * w
	cnt := n * plane
	batchMode := train || b.UseBatchStats
	y = tensor.New(x.Shape()...)
	xhat, invStd = make([]float32, len(x.Data)), make([]float32, b.C)
	for c := 0; c < b.C; c++ {
		var mean, varv float32
		if batchMode {
			s := float64(0)
			for img := 0; img < n; img++ {
				base := (img*b.C + c) * plane
				for i := 0; i < plane; i++ {
					s += float64(x.Data[base+i])
				}
			}
			mean = float32(s / float64(cnt))
			s2 := float64(0)
			for img := 0; img < n; img++ {
				base := (img*b.C + c) * plane
				for i := 0; i < plane; i++ {
					d := float64(x.Data[base+i] - mean)
					s2 += d * d
				}
			}
			varv = float32(s2 / float64(cnt))
			unbiased := varv
			if cnt > 1 {
				unbiased = float32(s2 / float64(cnt-1))
			}
			b.RunningMean[c] += b.Momentum * (mean - b.RunningMean[c])
			b.RunningVar[c] += b.Momentum * (unbiased - b.RunningVar[c])
			if b.SourcePrior > 0 && b.SourceMean != nil {
				w := float32(n) / (float32(n) + b.SourcePrior)
				mean = w*mean + (1-w)*b.SourceMean[c]
				varv = w*varv + (1-w)*b.SourceVar[c]
			}
		} else {
			mean, varv = b.RunningMean[c], b.RunningVar[c]
		}
		inv := float32(1.0 / math.Sqrt(float64(varv)+float64(b.Eps)))
		invStd[c] = inv
		g, bt := b.Gamma.Data[c], b.Beta.Data[c]
		for img := 0; img < n; img++ {
			base := (img*b.C + c) * plane
			for i := 0; i < plane; i++ {
				xh := (x.Data[base+i] - mean) * inv
				xhat[base+i] = xh
				y.Data[base+i] = float32(g*xh) + bt
			}
		}
	}
	return y, xhat, invStd
}

func serialBNBackward(b *BatchNorm2d, grad *tensor.Tensor, xhat, invStd []float32, statsVary bool) *tensor.Tensor {
	n, h, w := grad.Dim(0), grad.Dim(2), grad.Dim(3)
	plane := h * w
	cnt := float32(n * plane)
	dx := tensor.New(grad.Shape()...)
	for c := 0; c < b.C; c++ {
		var sumDy, sumDyXhat float64
		for img := 0; img < n; img++ {
			base := (img*b.C + c) * plane
			for i := 0; i < plane; i++ {
				dy := float64(grad.Data[base+i])
				sumDy += dy
				sumDyXhat += dy * float64(xhat[base+i])
			}
		}
		if !b.Beta.Frozen {
			b.Beta.Grad[c] += float32(sumDy)
		}
		if !b.Gamma.Frozen {
			b.Gamma.Grad[c] += float32(sumDyXhat)
		}
		g, inv := b.Gamma.Data[c], invStd[c]
		mDy, mDyXhat := float32(sumDy)/cnt, float32(sumDyXhat)/cnt
		for img := 0; img < n; img++ {
			base := (img*b.C + c) * plane
			for i := 0; i < plane; i++ {
				dy := grad.Data[base+i]
				if statsVary {
					dx.Data[base+i] = g * inv * (dy - mDy - float32(xhat[base+i]*mDyXhat))
				} else {
					dx.Data[base+i] = g * inv * dy
				}
			}
		}
	}
	return dx
}

// TestBatchNormMatchesSerialOracle runs the layer and the serial oracle on
// the same inputs, in every statistics mode, on planes that are and are
// not whole vector groups, and requires every output, saved value,
// running statistic and γ/β gradient to agree bit for bit. The lane
// reductions are only guaranteed to 1 ulp of the serial chain (see
// internal/tensor), so a failure here names a rounding flip to examine,
// not necessarily a kernel fault.
func TestBatchNormMatchesSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := [][4]int{{4, 3, 5, 5}, {2, 8, 16, 16}, {50, 4, 8, 8}, {3, 5, 1, 7}, {1, 2, 4, 4}}
	modes := []struct {
		name          string
		train, prior  bool
		frozenAffine  bool
		useBatchStats bool
	}{
		{name: "train", train: true},
		{name: "eval"},
		{name: "batch-stats", useBatchStats: true},
		{name: "prior", useBatchStats: true, prior: true},
		{name: "frozen", train: true, frozenAffine: true},
	}
	for _, sh := range shapes {
		for _, m := range modes {
			n, c, h, w := sh[0], sh[1], sh[2], sh[3]
			bn := NewBatchNorm2d("bn", c)
			for i := 0; i < c; i++ {
				bn.Gamma.Data[i] = float32(rng.NormFloat64())
				bn.Beta.Data[i] = float32(rng.NormFloat64())
				bn.RunningMean[i] = float32(rng.NormFloat64())
				bn.RunningVar[i] = float32(rng.ExpFloat64())
			}
			if m.prior {
				bn.SnapshotSource()
				bn.SourcePrior = 16
			}
			bn.UseBatchStats = m.useBatchStats
			bn.Gamma.Frozen, bn.Beta.Frozen = m.frozenAffine, m.frozenAffine
			ref := bn.CloneLayer().(*BatchNorm2d)

			x := tensor.New(n, c, h, w)
			x.Randn(rng, 3)
			for i := range x.Data {
				x.Data[i] += float32(10 * (i / (h * w) % c))
			}
			grad := tensor.New(n, c, h, w)
			grad.Randn(rng, 0.01)

			y := bn.Forward(x, m.train)
			dx := bn.Backward(grad)
			wantY, xhat, invStd := serialBNForward(ref, x, m.train)
			statsVary := (m.train || m.useBatchStats) && !m.prior
			wantDx := serialBNBackward(ref, grad, xhat, invStd, statsVary)

			for _, cmp := range []struct {
				what      string
				got, want []float32
			}{
				{"y", y.Data, wantY.Data}, {"xhat", bn.xhat, xhat}, {"invStd", bn.invStd, invStd},
				{"dx", dx.Data, wantDx.Data},
				{"running mean", bn.RunningMean, ref.RunningMean}, {"running var", bn.RunningVar, ref.RunningVar},
				{"dgamma", bn.Gamma.Grad, ref.Gamma.Grad}, {"dbeta", bn.Beta.Grad, ref.Beta.Grad},
			} {
				if !float32BitsEqual(cmp.got, cmp.want) {
					t.Fatalf("shape %v mode %s: %s differs from the serial oracle", sh, m.name, cmp.what)
				}
			}
		}
	}
}
