package nn

import (
	"math"

	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

// BatchNorm2d normalizes NCHW activations per channel. It is the layer the
// whole study revolves around: BN-Norm re-estimates Mean/Var from the test
// batch, and BN-Opt additionally optimizes Gamma/Beta by entropy descent.
//
// Statistics selection:
//   - train=false and UseBatchStats=false: running statistics (inference).
//   - train=true or UseBatchStats=true: statistics of the current batch,
//     with running stats updated by Momentum (PyTorch train() semantics,
//     which the paper's BN-Norm and BN-Opt both require).
type BatchNorm2d struct {
	name     string
	C        int
	Eps      float32
	Momentum float32

	Gamma, Beta             *Param    // learned affine transform (BN-Opt's target)
	RunningMean, RunningVar []float32 // inference statistics

	// UseBatchStats forces batch statistics even outside training; this is
	// the switch internal/core flips to run BN-Norm / BN-Opt adaptation.
	UseBatchStats bool

	// SourcePrior blends re-estimated batch statistics with the source
	// (pre-adaptation) statistics following Schneider et al.'s
	// prior-strength rule: with batch size n and prior strength N,
	// μ = n/(n+N)·μ_batch + N/(n+N)·μ_source (and likewise for variance).
	// 0 disables blending (pure batch statistics, the paper's BN-Norm).
	// When blending is active the statistics are treated as constants by
	// Backward (the standard approximation; BN-Norm never backpropagates).
	SourcePrior float32
	// SourceMean/SourceVar hold the frozen source statistics used by the
	// prior; SnapshotSource captures them from the running statistics.
	SourceMean, SourceVar []float32

	// cached for backward
	xhat      []float32 // normalized activations
	invStd    []float32 // per channel
	batchMode bool      // whether the cached forward used batch statistics
	statsVary bool      // whether those statistics depend on the input
	n, h, w   int
	lastSpec  Spec
}

// NewBatchNorm2d constructs a BatchNorm over c channels with PyTorch
// defaults (eps 1e-5, momentum 0.1, gamma=1, beta=0, running var=1).
func NewBatchNorm2d(name string, c int) *BatchNorm2d {
	bn := &BatchNorm2d{
		name: name, C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma: newParam(name+".gamma", c), Beta: newParam(name+".beta", c),
		RunningMean: make([]float32, c), RunningVar: make([]float32, c),
	}
	for i := 0; i < c; i++ {
		bn.Gamma.Data[i] = 1
		bn.RunningVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (b *BatchNorm2d) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm2d) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Spec implements Layer.
func (b *BatchNorm2d) Spec() Spec { return b.lastSpec }

// Forward implements Layer.
func (b *BatchNorm2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != b.C {
		panic(shapeErr(b.name, x.Shape()))
	}
	t0 := profStart()
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	plane := h * w
	cnt := n * plane
	b.n, b.h, b.w = n, h, w
	b.batchMode = train || b.UseBatchStats
	b.statsVary = b.batchMode && !(b.SourcePrior > 0 && b.SourceMean != nil)

	if cap(b.xhat) < len(x.Data) {
		b.xhat = make([]float32, len(x.Data))
	}
	b.xhat = b.xhat[:len(x.Data)]
	if b.invStd == nil {
		b.invStd = make([]float32, b.C)
	}

	y := tensor.New(x.Shape()...)
	// parallel.For schedules at grain 1: each channel's statistics pass is
	// heavy (two sweeps over n·plane values), so even a 16-channel layer
	// spreads across the pool rather than serializing as it did when the
	// worker count was derived from n/64.
	parallel.For(b.C, func(c int) {
		var mean, varv float32
		if b.batchMode {
			// Two-pass mean/variance over the batch for this channel.
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
			varv = float32(s2 / float64(cnt)) // biased, as PyTorch normalizes
			// Running stats use the unbiased estimate, as PyTorch does.
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
		b.invStd[c] = inv
		g, bt := b.Gamma.Data[c], b.Beta.Data[c]
		for img := 0; img < n; img++ {
			base := (img*b.C + c) * plane
			for i := 0; i < plane; i++ {
				xh := (x.Data[base+i] - mean) * inv
				b.xhat[base+i] = xh
				y.Data[base+i] = g*xh + bt
			}
		}
	})

	b.lastSpec = Spec{
		Kind: KindBN, LayerName: b.name,
		ParamCount: int64(2 * b.C),
		BNChannels: int64(b.C),
		OutElems:   int64(y.Numel()),
		SavedElems: int64(len(b.xhat)),
		Batch:      int64(n),
	}
	profEnd(KindBN, b.name, false, t0)
	return y
}

// Backward implements Layer. In batch-statistics mode it applies the full
// BatchNorm gradient (statistics depend on the input); in running-stats
// mode the statistics are constants and the gradient is a plain affine map.
func (b *BatchNorm2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := profStart()
	n, h, w := b.n, b.h, b.w
	plane := h * w
	cnt := float32(n * plane)
	dx := tensor.New(n, b.C, h, w)

	parallel.For(b.C, func(c int) {
		var sumDy, sumDyXhat float64
		for img := 0; img < n; img++ {
			base := (img*b.C + c) * plane
			for i := 0; i < plane; i++ {
				dy := float64(grad.Data[base+i])
				sumDy += dy
				sumDyXhat += dy * float64(b.xhat[base+i])
			}
		}
		if !b.Beta.Frozen {
			b.Beta.Grad[c] += float32(sumDy)
		}
		if !b.Gamma.Frozen {
			b.Gamma.Grad[c] += float32(sumDyXhat)
		}
		g, inv := b.Gamma.Data[c], b.invStd[c]
		if b.statsVary {
			mDy, mDyXhat := float32(sumDy)/cnt, float32(sumDyXhat)/cnt
			for img := 0; img < n; img++ {
				base := (img*b.C + c) * plane
				for i := 0; i < plane; i++ {
					dy := grad.Data[base+i]
					dx.Data[base+i] = g * inv * (dy - mDy - b.xhat[base+i]*mDyXhat)
				}
			}
		} else {
			for img := 0; img < n; img++ {
				base := (img*b.C + c) * plane
				for i := 0; i < plane; i++ {
					dx.Data[base+i] = g * inv * grad.Data[base+i]
				}
			}
		}
	})
	profEnd(KindBN, b.name, true, t0)
	return dx
}

// SnapshotSource freezes the current running statistics as the source
// prior used when SourcePrior > 0.
func (b *BatchNorm2d) SnapshotSource() {
	b.SourceMean = append(b.SourceMean[:0], b.RunningMean...)
	b.SourceVar = append(b.SourceVar[:0], b.RunningVar...)
}

// ResetRunning restores the running statistics to their initial state
// (mean 0, var 1). BN-Norm episodic adaptation uses this between corruption
// streams.
func (b *BatchNorm2d) ResetRunning() {
	for i := 0; i < b.C; i++ {
		b.RunningMean[i] = 0
		b.RunningVar[i] = 1
	}
}
