package nn

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

func float32BitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestConvDeterministicAcrossWorkerCounts pins the scheduler's contract at
// the layer level: a convolution's forward output, input gradient, and
// weight gradient must be bit-identical whether the pool runs one worker
// or eight. The weight gradient is the sharp edge — it is a reduction over
// images, which the old code merged in chunk-completion order. The grouped
// conv takes the strip backward; the ungrouped stride-1 conv takes it with
// a trainable weight and the packed input-gradient path with a frozen one.
func TestConvDeterministicAcrossWorkerCounts(t *testing.T) {
	type result struct{ y, dx, dw []float32 }
	for _, tc := range []struct {
		name                    string
		in, out, k, pad, groups int
		frozen                  bool
	}{
		{"grouped", 4, 6, 3, 1, 2, false},
		{"ungrouped", 12, 10, 3, 1, 1, false},
		{"ungrouped-frozen", 12, 10, 3, 1, 1, true},
	} {
		run := func(workers int) result {
			parallel.SetWorkers(workers)
			defer parallel.SetWorkers(0)
			rng := rand.New(rand.NewSource(23))
			conv := NewConv2d("c", rng, tc.in, tc.out, tc.k, 1, tc.pad, tc.groups)
			conv.Weight.Frozen = tc.frozen
			x := tensor.New(8, tc.in, 9, 9)
			x.Randn(rng, 1)
			y := conv.Forward(x, true)
			grad := tensor.New(y.Shape()...)
			grad.Randn(rng, 1)
			dx := conv.Backward(grad)
			return result{
				y:  append([]float32(nil), y.Data...),
				dx: append([]float32(nil), dx.Data...),
				dw: append([]float32(nil), conv.Weight.Grad...),
			}
		}
		one := run(1)
		eight := run(8)
		if !float32BitsEqual(one.y, eight.y) {
			t.Errorf("%s: conv forward differs between 1 and 8 workers", tc.name)
		}
		if !float32BitsEqual(one.dx, eight.dx) {
			t.Errorf("%s: conv input gradient differs between 1 and 8 workers", tc.name)
		}
		if !float32BitsEqual(one.dw, eight.dw) {
			t.Errorf("%s: conv weight gradient differs between 1 and 8 workers", tc.name)
		}
	}
}

// TestConvPackedMatchesIm2ColAtLayerLevel pins the dispatch contract end
// to end: with FMA off (the default), a stride-1 ungrouped Conv2d must
// produce bit-identical forward output through the packed direct path and
// the im2col path, including after a weight update (which must invalidate
// the packed cache via the Param version).
func TestConvPackedMatchesIm2ColAtLayerLevel(t *testing.T) {
	wasFMA := tensor.FMAEnabled()
	defer tensor.SetFMA(wasFMA)
	tensor.SetFMA(false)
	wasPacked := tensor.PackedEnabled()
	defer tensor.SetPacked(wasPacked)

	for _, tc := range []struct{ in, out, k, pad int }{
		{3, 16, 3, 1},  // first layer: tail input lanes
		{16, 16, 3, 1}, // exact blocks
		{16, 32, 1, 0}, // 1x1 shortcut
		{10, 12, 3, 0}, // tails both sides, no pad
	} {
		rng := rand.New(rand.NewSource(31))
		conv := NewConv2d("c", rng, tc.in, tc.out, tc.k, 1, tc.pad, 1)
		if !conv.PackedEligible() {
			t.Fatalf("%+v: expected packed eligibility", tc)
		}
		x := tensor.New(3, tc.in, 9, 11)
		x.Randn(rng, 1)
		tensor.SetPacked(true)
		packed := conv.Forward(x, false)
		tensor.SetPacked(false)
		im2col := conv.Forward(x, false)
		if !float32BitsEqual(packed.Data, im2col.Data) {
			t.Errorf("%+v: packed and im2col forward differ", tc)
		}

		// Mutate the weights (with MarkUpdated, per the Param contract)
		// and re-check: a stale packed cache would show up immediately.
		for i := range conv.Weight.Data {
			conv.Weight.Data[i] *= 1.5
		}
		conv.Weight.MarkUpdated()
		tensor.SetPacked(true)
		packed = conv.Forward(x, false)
		tensor.SetPacked(false)
		im2col = conv.Forward(x, false)
		if !float32BitsEqual(packed.Data, im2col.Data) {
			t.Errorf("%+v: packed path served stale weights after update", tc)
		}
	}
}

// TestConvPackedFMADeterministicAcrossWorkerCounts: the FMA opt-in gives
// up bit-parity with the im2col path but must keep the worker-count
// determinism contract (its accumulation order is unchanged).
func TestConvPackedFMADeterministicAcrossWorkerCounts(t *testing.T) {
	if !tensor.FMASupported() {
		t.Skip("no FMA kernel in this build")
	}
	wasFMA := tensor.FMAEnabled()
	defer tensor.SetFMA(wasFMA)
	tensor.SetFMA(true)
	run := func(workers int) []float32 {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		rng := rand.New(rand.NewSource(37))
		conv := NewConv2d("c", rng, 16, 24, 3, 1, 1, 1)
		x := tensor.New(6, 16, 10, 10)
		x.Randn(rng, 1)
		y := conv.Forward(x, false)
		return append([]float32(nil), y.Data...)
	}
	if !float32BitsEqual(run(1), run(8)) {
		t.Error("FMA conv forward differs between 1 and 8 workers")
	}
}

// TestBatchNormDeterministicAcrossWorkerCounts covers the per-channel
// coarse loop (grain 1) in both statistics modes.
func TestBatchNormDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) ([]float32, []float32, []float32) {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		rng := rand.New(rand.NewSource(29))
		bn := NewBatchNorm2d("bn", 16)
		x := tensor.New(6, 16, 7, 7)
		x.Randn(rng, 1)
		y := bn.Forward(x, true)
		grad := tensor.New(y.Shape()...)
		grad.Randn(rng, 1)
		dx := bn.Backward(grad)
		return append([]float32(nil), y.Data...),
			append([]float32(nil), dx.Data...),
			append([]float32(nil), bn.RunningMean...)
	}
	y1, dx1, rm1 := run(1)
	y8, dx8, rm8 := run(8)
	if !float32BitsEqual(y1, y8) {
		t.Error("batchnorm forward differs between 1 and 8 workers")
	}
	if !float32BitsEqual(dx1, dx8) {
		t.Error("batchnorm backward differs between 1 and 8 workers")
	}
	if !float32BitsEqual(rm1, rm8) {
		t.Error("batchnorm running stats differ between 1 and 8 workers")
	}
}
