package nn

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/tensor"
)

// bnConvChain runs x through BatchNorm (batch statistics) then a conv and
// back, returning the conv's input gradient, the BN input gradient and the
// BN γ/β gradients. The conv's Weight.Grad is pre-filled with a sentinel
// so a skipped accumulation is observable.
func bnConvChain(seed int64, in, out, k, stride, pad, groups int, frozen bool) (conv *Conv2d, dconv, dbn, dgamma, dbeta []float32) {
	rng := rand.New(rand.NewSource(seed))
	bn := NewBatchNorm2d("bn", in)
	bn.UseBatchStats = true
	conv = NewConv2d("c", rng, in, out, k, stride, pad, groups)
	conv.Weight.Frozen = frozen
	for i := range conv.Weight.Grad {
		conv.Weight.Grad[i] = 7
	}
	x := tensor.New(5, in, 9, 8)
	x.Randn(rng, 1)
	y := conv.Forward(bn.Forward(x, false), false)
	grad := tensor.New(y.Shape()...)
	grad.Randn(rng, 1)
	dc := conv.Backward(grad)
	dx := bn.Backward(dc)
	return conv, dc.Data, dx.Data, bn.Gamma.Grad, bn.Beta.Grad
}

// TestFrozenConvBackwardKeepsInputGradient: freezing a conv weight skips
// its gradient and nothing else. On the strip backward, dX and the
// upstream BN γ/β gradients are bit-identical to the trainable layer's,
// and the frozen Weight.Grad is left untouched.
func TestFrozenConvBackwardKeepsInputGradient(t *testing.T) {
	wasPacked := tensor.PackedEnabled()
	defer tensor.SetPacked(wasPacked)
	tensor.SetPacked(false) // the strip path for every shape
	for _, tc := range []struct{ in, out, k, stride, pad, groups int }{
		{3, 16, 3, 1, 1, 1},
		{16, 32, 1, 1, 0, 1},
		{8, 16, 3, 2, 1, 1},
		{8, 8, 3, 1, 1, 4},
		{16, 32, 1, 2, 0, 1},
	} {
		_, dcT, dbnT, dgT, dbT := bnConvChain(41, tc.in, tc.out, tc.k, tc.stride, tc.pad, tc.groups, false)
		conv, dcF, dbnF, dgF, dbF := bnConvChain(41, tc.in, tc.out, tc.k, tc.stride, tc.pad, tc.groups, true)
		if !float32BitsEqual(dcT, dcF) {
			t.Errorf("%+v: frozen conv changed the input gradient", tc)
		}
		if !float32BitsEqual(dbnT, dbnF) || !float32BitsEqual(dgT, dgF) || !float32BitsEqual(dbT, dbF) {
			t.Errorf("%+v: frozen conv changed the BN gradients", tc)
		}
		for i, g := range conv.Weight.Grad {
			if g != 7 {
				t.Fatalf("%+v: frozen Weight.Grad[%d] written (%v)", tc, i, g)
			}
		}
	}
}

// TestFrozenLinearBackward: a frozen weight or bias keeps its Grad
// untouched while dX stays bit-identical to the trainable layer's.
func TestFrozenLinearBackward(t *testing.T) {
	run := func(freezeW, freezeB bool) (*Linear, []float32) {
		rng := rand.New(rand.NewSource(43))
		l := NewLinear("fc", rng, 12, 5)
		l.Weight.Frozen, l.Bias.Frozen = freezeW, freezeB
		x := tensor.New(4, 12)
		x.Randn(rng, 1)
		y := l.Forward(x, false)
		grad := tensor.New(y.Shape()...)
		grad.Randn(rng, 1)
		return l, l.Backward(grad).Data
	}
	ref, dxRef := run(false, false)
	for _, tc := range []struct{ w, b bool }{{true, false}, {false, true}, {true, true}} {
		l, dx := run(tc.w, tc.b)
		if !float32BitsEqual(dx, dxRef) {
			t.Errorf("%+v: frozen linear changed the input gradient", tc)
		}
		for _, p := range []struct {
			got, want *Param
		}{{l.Weight, ref.Weight}, {l.Bias, ref.Bias}} {
			for i, g := range p.got.Grad {
				if p.got.Frozen && g != 0 {
					t.Fatalf("%+v: frozen %s.Grad[%d] written", tc, p.got.Name, i)
				}
				if !p.got.Frozen && g != p.want.Grad[i] {
					t.Fatalf("%+v: trainable %s.Grad[%d] differs", tc, p.got.Name, i)
				}
			}
		}
	}
}

// TestFrozenBitSurvivesCloneAndZeroGrads: clones keep each Param's frozen
// bit, and ZeroGrads clears trainable gradients only.
func TestFrozenBitSurvivesCloneAndZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	bn := NewBatchNorm2d("bn", 4)
	net := NewSequential("net", NewConv2d("c", rng, 3, 4, 3, 1, 1, 1), bn, NewLinear("fc", rng, 4, 2))
	for _, p := range CollectParams(net) {
		p.Frozen = p != bn.Gamma
		p.Grad[0] = 1
	}
	cl := Clone(net)
	orig, cloned := CollectParams(net), CollectParams(cl)
	for i, p := range orig {
		if cloned[i].Frozen != p.Frozen {
			t.Errorf("%s: clone frozen=%v, original %v", p.Name, cloned[i].Frozen, p.Frozen)
		}
	}
	ZeroGrads(net)
	for _, p := range orig {
		if p.Frozen && p.Grad[0] != 1 {
			t.Errorf("%s: ZeroGrads touched a frozen gradient", p.Name)
		}
		if !p.Frozen && p.Grad[0] != 0 {
			t.Errorf("%s: ZeroGrads left a trainable gradient", p.Name)
		}
	}
}

// packedGradTol is the relative tolerance of the packed input gradient
// against the strip oracle, as a fraction of the oracle's largest
// magnitude. The two sum the same products in different association
// orders, so they differ by float32 rounding only; observed differences
// stay below 1e-6, with or without FMA.
const packedGradTol = 1e-5

// maxRelDiff returns max|a-b| / max|b|.
func maxRelDiff(a, b []float32) float64 {
	var diff, scale float64
	for i := range b {
		diff = math.Max(diff, math.Abs(float64(a[i])-float64(b[i])))
		scale = math.Max(scale, math.Abs(float64(b[i])))
	}
	return diff / scale
}

// TestPackedInputGradMatchesStripOracle is the differential test of the
// packed input-gradient path (frozen weight, stride 1, ungrouped) against
// the strip backward, across kernel sizes, paddings and channel counts
// that are not multiples of the 8-lane block, including the 3-channel
// stem. A weight update must invalidate the cached flipped weights.
func TestPackedInputGradMatchesStripOracle(t *testing.T) {
	wasPacked := tensor.PackedEnabled()
	defer tensor.SetPacked(wasPacked)
	for _, tc := range []struct{ in, out, k, pad int }{
		{3, 16, 3, 1},  // the stem: tail lanes in dX
		{16, 16, 3, 1}, // exact blocks
		{16, 32, 1, 0}, // 1x1 shortcut
		{10, 12, 3, 0}, // tails both sides, no pad
		{12, 5, 1, 0},  // tail output lanes in dY
		{5, 11, 3, 2},  // over-padded: K-1-Pad = 0
	} {
		rng := rand.New(rand.NewSource(53))
		conv := NewConv2d("c", rng, tc.in, tc.out, tc.k, 1, tc.pad, 1)
		conv.Weight.Frozen = true
		x := tensor.New(3, tc.in, 9, 7)
		x.Randn(rng, 1)
		grad := tensor.New(3, tc.out, 9+2*tc.pad-tc.k+1, 7+2*tc.pad-tc.k+1)
		grad.Randn(rng, 1)
		for round := 0; round < 2; round++ {
			tensor.SetPacked(false)
			conv.Forward(x, false)
			oracle := conv.Backward(grad).Data
			tensor.SetPacked(true)
			conv.Forward(x, false)
			packed := conv.Backward(grad).Data
			if d := maxRelDiff(packed, oracle); d > packedGradTol {
				t.Errorf("%+v round %d: packed dX off the strip oracle by %.3g (tolerance %g)", tc, round, d, packedGradTol)
			}
			for i := range conv.Weight.Data {
				conv.Weight.Data[i] *= -1.5
			}
			conv.Weight.MarkUpdated()
		}
	}
}
