package nn

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

// bwGroups is the fixed upper bound on weight-gradient partials in
// Conv2d.Backward. It is a reduction-shape constant, not a parallelism
// setting: deriving it from the worker count would make gradient sums
// depend on the machine.
const bwGroups = 16

// bwStripRows is the lowering strip height of the backward pass: instead
// of materializing the full [C*K*K, Hout*Wout] im2col matrix (and a
// second one for the input-gradient columns), Backward streams this many
// rows at a time through an L2-resident buffer. The strip kernels are the
// same matmul/col2im kernels applied to row slices, so results are
// bit-identical to the full materialization for every strip size.
const bwStripRows = 32

// Conv2d is a 2-D convolution over NCHW tensors with square kernels,
// symmetric padding, and optional grouping (grouped convolution is what
// gives ResNeXt its cardinality and MobileNetV2 its depthwise stage).
// Bias is omitted: every convolution in the paper's models feeds a
// BatchNorm, which subsumes it.
//
// Forward dispatch: stride-1 ungrouped convolutions (nearly all of the
// WRN workload) run on the packed NC8HW8 direct path — no im2col matrix
// is materialized, and the packed weights are cached across calls and
// shared with clones until the weights change. Other shapes fall back to
// the im2col + matmul path. The default packed path is bit-identical to
// the im2col path (see tensor/conv_direct.go); the opt-in FMA variant
// (tensor.SetFMA / EDGETTA_FMA=1) trades that parity for speed.
type Conv2d struct {
	name           string
	InC, OutC      int
	K, Stride, Pad int
	Groups         int
	Weight         *Param // [OutC, InC/Groups * K * K] row-major

	input                *tensor.Tensor
	lastSpec             Spec
	outH, outW, inH, inW int

	// Packed-path caches: packed is the weight tensor in kernel order and
	// packedT its flipped, channel-transposed twin for the input gradient,
	// each valid while its Version matches Weight.Version() (clones share
	// them until either side's weights change); fwOff and bwOff are the
	// offset tables for the last-seen forward input and backward output-
	// gradient geometries.
	packed, packedT *tensor.PackedWeights
	fwOff, bwOff    offsetCache
}

// offsetCache holds a packed-kernel offset table (tensor.ConvOffsets) for
// the last-seen unpadded geometry h×w.
type offsetCache struct {
	off  []int32
	h, w int
}

// get returns the offset table for a c-channel h×w input padded by pad
// and a k×k kernel, rebuilding it when the geometry changed.
func (o *offsetCache) get(c, h, w, pad, k int) []int32 {
	if o.off == nil || o.h != h || o.w != w {
		o.off = tensor.ConvOffsets(c, h+2*pad, w+2*pad, k)
		o.h, o.w = h, w
	}
	return o.off
}

// NewConv2d constructs a convolution layer with He-normal initialization.
func NewConv2d(name string, rng *rand.Rand, inC, outC, k, stride, pad, groups int) *Conv2d {
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: %s: channels (%d→%d) not divisible by groups %d", name, inC, outC, groups))
	}
	c := &Conv2d{
		name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups,
		Weight: newParam(name+".weight", outC*(inC/groups)*k*k),
	}
	kaimingConv(rng, c.Weight.Data, outC*k*k/groups)
	return c
}

// Name implements Layer.
func (c *Conv2d) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2d) Params() []*Param { return []*Param{c.Weight} }

// Spec implements Layer.
func (c *Conv2d) Spec() Spec { return c.lastSpec }

// PackedEligible reports whether this layer's shape is served by the
// packed direct-convolution path: stride-1 and ungrouped. Grouped or
// strided convolutions fall back to im2col + matmul.
func (c *Conv2d) PackedEligible() bool { return c.Groups == 1 && c.Stride == 1 }

// packedWeights returns the cached packed weight tensor, repacking if the
// underlying Param has been mutated since (Param.MarkUpdated bumps the
// version). The returned buffer is immutable; clones of an unadapted
// layer share one copy.
func (c *Conv2d) packedWeights() *tensor.PackedWeights {
	if p := c.packed; p != nil && p.Version == c.Weight.Version() {
		return p
	}
	p := tensor.PackConvWeights(c.Weight.Data, c.OutC, c.InC, c.K)
	p.Version = c.Weight.Version()
	c.packed = p
	return p
}

// Forward implements Layer. The batch dimension is processed in parallel.
func (c *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != c.InC {
		panic(shapeErr(c.name, x.Shape()))
	}
	t0 := profStart()
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := (h+2*c.Pad-c.K)/c.Stride + 1
	outW := (w+2*c.Pad-c.K)/c.Stride + 1
	c.input, c.inH, c.inW, c.outH, c.outW = x, h, w, outH, outW

	rows := (c.InC / c.Groups) * c.K * c.K
	cols := outH * outW
	y := tensor.New(n, c.OutC, outH, outW)

	if tensor.PackedEnabled() && c.PackedEligible() {
		c.runPacked(y, x, c.packedWeights, &c.fwOff, c.Pad, false)
	} else {
		c.forwardIm2Col(x, y, n, h, w, outH, outW)
	}

	c.lastSpec = Spec{
		Kind: KindConv, LayerName: c.name,
		MACs:       int64(n) * int64(c.OutC) * int64(rows) * int64(cols),
		ParamCount: int64(len(c.Weight.Data)),
		OutElems:   int64(y.Numel()),
		SavedElems: int64(x.Numel()),
		Batch:      int64(n),
	}
	profEnd(KindConv, c.name, false, t0)
	return y
}

// forwardIm2Col is the general path: each image is lowered with im2col
// and multiplied against the weight matrix one group at a time.
// Grain 1: each image is heavy (an im2col plus a matmul per group), so
// even a micro-batch of 2 should use 2 workers. The inner matmul calls
// degrade to inline execution while the pool is busy with this loop.
func (c *Conv2d) forwardIm2Col(x, y *tensor.Tensor, n, h, w, outH, outW int) {
	inCg, outCg := c.InC/c.Groups, c.OutC/c.Groups
	rows := inCg * c.K * c.K
	cols := outH * outW
	parallel.ForGrain(n, 1, func(lo, hi int) {
		buf := tensor.GetScratch(rows * cols)
		defer tensor.PutScratch(buf)
		for img := lo; img < hi; img++ {
			xImg := x.Data[img*c.InC*h*w : (img+1)*c.InC*h*w]
			yImg := y.Data[img*c.OutC*cols : (img+1)*c.OutC*cols]
			for g := 0; g < c.Groups; g++ {
				tensor.Im2Col(buf, xImg[g*inCg*h*w:(g+1)*inCg*h*w], inCg, h, w, c.K, c.Stride, c.Pad)
				wg := c.Weight.Data[g*outCg*rows : (g+1)*outCg*rows]
				tensor.MatMulInto(yImg[g*outCg*cols:(g+1)*outCg*cols], wg, buf, outCg, rows, cols, false)
			}
		}
	})
}

// runPacked is the direct path, shared by the forward pass and the
// packed input gradient: pack each image of src (padding pad baked in),
// run the NC8HW8 microkernel over it in place with the weights weights()
// returns and the cached offset table, and unpack the result into dst.
// Both directions convolve with c.K and c.Stride (the input gradient runs
// only for stride 1). When a tracer is active, layout conversion time
// is credited to KindPack in the same direction (contained within this
// layer's KindConv interval), so pack overhead stays attributable next to
// compute.
func (c *Conv2d) runPacked(dst, src *tensor.Tensor, weights func() *tensor.PackedWeights, offs *offsetCache, pad int, backward bool) {
	prof := profActive()
	var packNanos atomic.Int64
	t0 := time.Time{}
	if prof {
		t0 = time.Now()
	}
	n, inC, h, w := src.Dim(0), src.Dim(1), src.Dim(2), src.Dim(3)
	outC, outH, outW := dst.Dim(1), dst.Dim(2), dst.Dim(3)
	pw := weights()
	hp, wpad := h+2*pad, w+2*pad
	off := offs.get(inC, h, w, pad, c.K)
	if prof {
		packNanos.Add(int64(time.Since(t0)))
	}
	inLen, outLen := inC*h*w, outC*outH*outW
	spLen := tensor.PackedImageLen(inC, h, w, pad)
	dpLen := tensor.PackedImageLen(outC, outH, outW, 0)
	parallel.ForGrain(n, 1, func(lo, hi int) {
		sp := tensor.GetScratch(spLen)
		defer tensor.PutScratch(sp)
		dp := tensor.GetScratch(dpLen)
		defer tensor.PutScratch(dp)
		for img := lo; img < hi; img++ {
			var tp time.Time
			if prof {
				tp = time.Now()
			}
			tensor.PackImage(sp, src.Data[img*inLen:(img+1)*inLen], inC, h, w, pad)
			if prof {
				packNanos.Add(int64(time.Since(tp)))
			}
			tensor.ConvPackedForward(dp, sp, pw, off, outH, outW, hp, wpad, c.Stride)
			if prof {
				tp = time.Now()
			}
			tensor.UnpackImage(dst.Data[img*outLen:(img+1)*outLen], dp, outC, outH, outW)
			if prof {
				packNanos.Add(int64(time.Since(tp)))
			}
		}
	})
	if prof {
		profAdd(KindPack, backward, time.Duration(packNanos.Load()))
	}
}

// packedWeightsT returns the cached input-gradient weights: W with every
// K×K tap spatially flipped and the channel axes swapped ([InC, OutC*K*K]),
// packed for the direct kernel. Like packedWeights it repacks only when
// Weight.Version() moved.
func (c *Conv2d) packedWeightsT() *tensor.PackedWeights {
	if p := c.packedT; p != nil && p.Version == c.Weight.Version() {
		return p
	}
	kk := c.K * c.K
	wt := make([]float32, len(c.Weight.Data))
	for oc := 0; oc < c.OutC; oc++ {
		for ic := 0; ic < c.InC; ic++ {
			src := c.Weight.Data[(oc*c.InC+ic)*kk:][:kk]
			dst := wt[(ic*c.OutC+oc)*kk:][:kk]
			for i, v := range src {
				dst[kk-1-i] = v // tap (ky,kx) → (K-1-ky, K-1-kx)
			}
		}
	}
	p := tensor.PackConvWeights(wt, c.InC, c.OutC, c.K)
	p.Version = c.Weight.Version()
	c.packedT = p
	return p
}

// Backward implements Layer: returns dInput and, unless Weight is frozen,
// accumulates dWeight into Weight.Grad. A frozen weight on the forward
// pass's packed dispatch (stride 1, ungrouped) takes the direct path;
// every other case runs the strip lowering of backwardStrips, which is
// also the oracle the packed path is tested against. A trainable weight
// keeps the strip path for dX as well, so training gradients are the same
// bits on either forward dispatch.
func (c *Conv2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.input
	if x == nil {
		panic("nn: " + c.name + ": Backward before Forward")
	}
	t0 := profStart()
	dx := tensor.New(x.Shape()...)
	// Pad < K keeps the gradient's padding K-1-Pad non-negative; every
	// padded conv in the study's models satisfies it.
	if c.Weight.Frozen && tensor.PackedEnabled() && c.PackedEligible() && c.Pad < c.K {
		// dX is the stride-1 convolution of dY, padded by K-1-Pad, with
		// the flipped, channel-transposed weights. Each dX element sums
		// over (oc, ky, kx) as one ascending run, a different association
		// than the strip path's (over oc inside each tap, then over taps),
		// so the two agree to rounding rather than bitwise; the kernel's
		// order is fixed, so the result is bit-identical for every worker
		// count.
		c.runPacked(dx, grad, c.packedWeightsT, &c.bwOff, c.K-1-c.Pad, true)
	} else {
		c.backwardStrips(grad, dx)
	}
	profEnd(KindConv, c.name, true, t0)
	return dx
}

// backwardStrips writes dX into dx and, unless Weight is frozen,
// accumulates dWeight. The lowering is recomputed rather than cached,
// trading FLOPs for the memory the paper shows is the binding constraint
// on edge devices — and it is recomputed in strips of bwStripRows rows, so
// the transient footprint per worker is a few small strip buffers instead
// of two full column matrices. Strip results are bit-identical to the full
// materialization: each strip is the same lowering rows fed to the same
// matmul kernels, and the column-to-image scatter runs in ascending row
// order across strips. A frozen weight skips the input lowering and the
// whole dW computation; dX is unchanged bit for bit, since it never reads
// either.
func (c *Conv2d) backwardStrips(grad, dx *tensor.Tensor) {
	x := c.input
	n, h, w := x.Dim(0), c.inH, c.inW
	inCg, outCg := c.InC/c.Groups, c.OutC/c.Groups
	rows := inCg * c.K * c.K
	cols := c.outH * c.outW
	wantDW := !c.Weight.Frozen

	// The weight gradient sums contributions from every image, and float
	// addition is not associative, so the reduction must not depend on how
	// the scheduler happens to interleave chunks (the previous code merged
	// per-chunk partials under a mutex in completion order, which is only
	// deterministic when a single worker runs). Images are therefore
	// partitioned into a fixed number of groups derived from the batch size
	// alone, each group accumulates its partial in image order, and the
	// partials are merged in group order afterwards — bit-identical results
	// for every worker count.
	groups := bwGroups
	if n < groups {
		groups = n
	}
	if groups == 0 {
		return
	}
	span := (n + groups - 1) / groups
	groups = (n + span - 1) / span // drop groups the ceiling left empty
	strip := bwStripRows
	if strip > rows {
		strip = rows
	}
	// The per-group weight-gradient partials outlive the parallel loop (they
	// are merged in group order below), so they are acquired here, in the
	// scope whose defers bracket both the loop and the merge — the scratch-
	// pool protocol ttalint enforces: every GetScratch owns a defer in its
	// own scope.
	var partials [][]float32
	if wantDW {
		partials = make([][]float32, groups)
		for gi := range partials {
			dw := tensor.GetScratch(len(c.Weight.Data))
			defer tensor.PutScratch(dw)
			partials[gi] = dw
		}
	}
	parallel.For(groups, func(gi int) {
		lo, hi := gi*span, (gi+1)*span
		if hi > n {
			hi = n
		}
		colBuf := tensor.GetScratch(strip * cols)
		defer tensor.PutScratch(colBuf)
		dcolBuf := tensor.GetScratch(strip * cols)
		defer tensor.PutScratch(dcolBuf)
		wStrip := tensor.GetScratch(outCg * strip)
		defer tensor.PutScratch(wStrip)
		dwStrip := tensor.GetScratch(outCg * strip)
		defer tensor.PutScratch(dwStrip)
		var dw []float32
		if wantDW {
			dw = partials[gi]
			clear(dw)
		}
		for img := lo; img < hi; img++ {
			xImg := x.Data[img*c.InC*h*w : (img+1)*c.InC*h*w]
			gImg := grad.Data[img*c.OutC*cols : (img+1)*c.OutC*cols]
			dxImg := dx.Data[img*c.InC*h*w : (img+1)*c.InC*h*w]
			for g := 0; g < c.Groups; g++ {
				xg := xImg[g*inCg*h*w : (g+1)*inCg*h*w]
				dxg := dxImg[g*inCg*h*w : (g+1)*inCg*h*w]
				gSlice := gImg[g*outCg*cols : (g+1)*outCg*cols]
				wg := c.Weight.Data[g*outCg*rows : (g+1)*outCg*rows]
				for r0 := 0; r0 < rows; r0 += strip {
					r1 := r0 + strip
					if r1 > rows {
						r1 = rows
					}
					sr := r1 - r0
					if wantDW {
						// dW_g strip: each element is the same dY·colᵀ
						// dot product as the full matmul, added once to
						// the running partial.
						tensor.Im2ColRows(colBuf, xg, inCg, h, w, c.K, c.Stride, c.Pad, r0, r1)
						tensor.MatMulTransBInto(dwStrip, gSlice, colBuf, outCg, cols, sr, false)
						dwg := dw[g*outCg*rows : (g+1)*outCg*rows]
						for oc := 0; oc < outCg; oc++ {
							dst := dwg[oc*rows+r0 : oc*rows+r1]
							for j, v := range dwStrip[oc*sr : (oc+1)*sr] {
								dst[j] += v
							}
						}
					}
					// dCols strip = W_gᵀ·dY_g over a column slice of W
					// (copied contiguous so the kernel sees the same
					// layout), scattered back in ascending row order.
					for oc := 0; oc < outCg; oc++ {
						copy(wStrip[oc*sr:(oc+1)*sr], wg[oc*rows+r0:oc*rows+r1])
					}
					tensor.MatMulTransAInto(dcolBuf, wStrip, gSlice, outCg, sr, cols, false)
					tensor.Col2ImRows(dxg, dcolBuf, inCg, h, w, c.K, c.Stride, c.Pad, r0, r1)
				}
			}
		}
	})
	for _, dw := range partials {
		for i, v := range dw {
			c.Weight.Grad[i] += v
		}
	}
}
