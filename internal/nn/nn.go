// Package nn implements the neural-network layers, blocks and losses used by
// the test-time-adaptation study: convolutions (with groups), batch
// normalization with the three statistics modes the paper's algorithms need,
// activations, pooling, linear layers, and the cross-entropy / Shannon
// entropy losses with analytic gradients.
//
// Autograd is layer-structured rather than tape-based: each layer caches the
// activations its backward pass needs (mirroring PyTorch's dynamic graph,
// whose memory footprint the paper profiles) and implements an explicit
// Backward.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"edgetta/internal/tensor"
)

// Param is a learnable parameter with its gradient accumulator.
type Param struct {
	Name string
	Data []float32
	Grad []float32

	// Frozen marks a parameter nothing will update: layers skip computing
	// its gradient and leave Grad untouched. The zero value is trainable;
	// only adapters set it (BN-Opt freezes everything but BN γ/β).
	Frozen bool

	// version counts in-place mutations of Data (see MarkUpdated).
	version uint64
}

// MarkUpdated records an in-place mutation of Data. Layers that cache
// derived forms of a parameter — the convolution layer's packed weights —
// compare versions to invalidate, so every code path that writes Data
// after construction (optimizer steps, pruning, quantization, checkpoint
// loading) must call it.
func (p *Param) MarkUpdated() { p.version++ }

// Version returns the mutation counter MarkUpdated advances.
func (p *Param) Version() uint64 { return p.version }

func newParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float32, n), Grad: make([]float32, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Layer is the unit of forward/backward computation.
//
// Forward runs the layer, caching whatever Backward needs. The train flag
// selects training behaviour (for BatchNorm: batch statistics and running-
// stat updates). Backward consumes the gradient w.r.t. the layer's output
// and returns the gradient w.r.t. its input, accumulating parameter
// gradients into Params.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	Spec() Spec
	Name() string
}

// Container is implemented by composite layers so tooling can walk the tree.
type Container interface {
	Children() []Layer
}

// Walk visits every layer in the tree rooted at l, composites included,
// in forward order.
func Walk(l Layer, fn func(Layer)) {
	fn(l)
	if c, ok := l.(Container); ok {
		for _, ch := range c.Children() {
			Walk(ch, fn)
		}
	}
}

// CollectParams gathers the parameters of the whole tree rooted at l.
func CollectParams(l Layer) []*Param {
	var out []*Param
	Walk(l, func(x Layer) {
		if _, ok := x.(Container); ok {
			return // composites report no params of their own
		}
		out = append(out, x.Params()...)
	})
	return out
}

// ZeroGrads clears every trainable gradient in the tree rooted at l;
// frozen parameters accumulate no gradient, so there is nothing to clear.
func ZeroGrads(l Layer) {
	for _, p := range CollectParams(l) {
		if !p.Frozen {
			p.ZeroGrad()
		}
	}
}

// BatchNorms returns every BatchNorm2d in the tree rooted at l, in forward
// order. The adaptation algorithms in internal/core operate on this set.
func BatchNorms(l Layer) []*BatchNorm2d {
	var out []*BatchNorm2d
	Walk(l, func(x Layer) {
		if bn, ok := x.(*BatchNorm2d); ok {
			out = append(out, bn)
		}
	})
	return out
}

// Sequential chains layers; Forward threads the activation through each in
// order and Backward replays them in reverse.
type Sequential struct {
	name   string
	layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.layers = append(s.layers, layers...) }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer; composites report none of their own.
func (s *Sequential) Params() []*Param { return nil }

// Spec implements Layer.
func (s *Sequential) Spec() Spec { return Spec{Kind: KindComposite, LayerName: s.name} }

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Children implements Container.
func (s *Sequential) Children() []Layer { return s.layers }

// kaimingConv initializes a conv weight [cout, cinPerGroup*k*k] with
// He-normal fan-out scaling, matching the reference PyTorch models.
func kaimingConv(rng *rand.Rand, w []float32, fanOut int) {
	std := math.Sqrt(2.0 / float64(fanOut))
	for i := range w {
		w[i] = float32(rng.NormFloat64() * std)
	}
}

func shapeErr(layer string, shape []int) string {
	return fmt.Sprintf("nn: %s: unexpected input shape %v", layer, shape)
}
