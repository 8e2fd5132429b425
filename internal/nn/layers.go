package nn

import (
	"math"
	"math/rand"

	"edgetta/internal/tensor"
)

// ReLU is max(0, x); with a positive Cap it becomes ReLU6-style clamping
// (used by MobileNetV2).
type ReLU struct {
	name     string
	Cap      float32 // 0 means uncapped
	mask     []bool
	lastSpec Spec
}

// NewReLU returns an uncapped rectifier.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// NewReLU6 returns a rectifier clamped to [0, 6], as in MobileNetV2.
func NewReLU6(name string) *ReLU { return &ReLU{name: name, Cap: 6} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Spec implements Layer.
func (r *ReLU) Spec() Spec { return r.lastSpec }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindAct, r.name, false, t0)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	y := tensor.New(x.Shape()...)
	for i, v := range x.Data {
		pass := v > 0 && (r.Cap == 0 || v < r.Cap)
		r.mask[i] = pass
		if pass {
			y.Data[i] = v
		} else if r.Cap != 0 && v >= r.Cap {
			y.Data[i] = r.Cap
		}
	}
	r.lastSpec = Spec{Kind: KindAct, LayerName: r.name, OutElems: int64(x.Numel()),
		SavedElems: int64(x.Numel()), Batch: int64(x.Dim(0))}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindAct, r.name, true, t0)
	dx := tensor.New(grad.Shape()...)
	for i, g := range grad.Data {
		if r.mask[i] {
			dx.Data[i] = g
		}
	}
	return dx
}

// Linear is a fully connected layer y = x·Wᵀ + b over [N, in] inputs.
type Linear struct {
	name     string
	In, Out  int
	Weight   *Param // [Out, In]
	Bias     *Param // [Out]
	input    *tensor.Tensor
	lastSpec Spec
}

// NewLinear constructs a fully connected layer with uniform fan-in init.
func NewLinear(name string, rng *rand.Rand, in, out int) *Linear {
	l := &Linear{name: name, In: in, Out: out,
		Weight: newParam(name+".weight", out*in), Bias: newParam(name+".bias", out)}
	bound := 1.0 / math.Sqrt(float64(in))
	for i := range l.Weight.Data {
		l.Weight.Data[i] = float32((rng.Float64()*2 - 1) * bound)
	}
	for i := range l.Bias.Data {
		l.Bias.Data[i] = float32((rng.Float64()*2 - 1) * bound)
	}
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Spec implements Layer.
func (l *Linear) Spec() Spec { return l.lastSpec }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 2 || x.Dim(1) != l.In {
		panic(shapeErr(l.name, x.Shape()))
	}
	t0 := profStart()
	defer profEnd(KindLinear, l.name, false, t0)
	n := x.Dim(0)
	l.input = x
	y := tensor.New(n, l.Out)
	tensor.MatMulTransBInto(y.Data, x.Data, l.Weight.Data, n, l.In, l.Out, false)
	for i := 0; i < n; i++ {
		row := y.Data[i*l.Out : (i+1)*l.Out]
		for j, bv := range l.Bias.Data {
			row[j] += bv
		}
	}
	l.lastSpec = Spec{Kind: KindLinear, LayerName: l.name,
		MACs:       int64(n) * int64(l.In) * int64(l.Out),
		ParamCount: int64(len(l.Weight.Data) + len(l.Bias.Data)),
		OutElems:   int64(y.Numel()), SavedElems: int64(x.Numel()), Batch: int64(n)}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindLinear, l.name, true, t0)
	n := grad.Dim(0)
	// dW += dYᵀ · X ; dB += column sums of dY ; dX = dY · W. Frozen
	// parameters get no gradient.
	if !l.Weight.Frozen {
		tensor.MatMulTransAInto(l.Weight.Grad, grad.Data, l.input.Data, n, l.Out, l.In, true)
	}
	if !l.Bias.Frozen {
		for i := 0; i < n; i++ {
			for j := 0; j < l.Out; j++ {
				l.Bias.Grad[j] += grad.Data[i*l.Out+j]
			}
		}
	}
	dx := tensor.New(n, l.In)
	tensor.MatMulInto(dx.Data, grad.Data, l.Weight.Data, n, l.Out, l.In, false)
	return dx
}

// GlobalAvgPool reduces [N,C,H,W] to [N,C] by spatial averaging.
type GlobalAvgPool struct {
	name     string
	h, w     int
	lastSpec Spec
}

// NewGlobalAvgPool constructs the pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.name }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Spec implements Layer.
func (p *GlobalAvgPool) Spec() Spec { return p.lastSpec }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindPool, p.name, false, t0)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.h, p.w = h, w
	y := tensor.New(n, c)
	plane := h * w
	inv := 1 / float32(plane)
	for i := 0; i < n*c; i++ {
		s := float32(0)
		for j := 0; j < plane; j++ {
			s += x.Data[i*plane+j]
		}
		y.Data[i] = s * inv
	}
	p.lastSpec = Spec{Kind: KindPool, LayerName: p.name, OutElems: int64(n * c), Batch: int64(n)}
	return y
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindPool, p.name, true, t0)
	n, c := grad.Dim(0), grad.Dim(1)
	plane := p.h * p.w
	inv := 1 / float32(plane)
	dx := tensor.New(n, c, p.h, p.w)
	for i := 0; i < n*c; i++ {
		g := grad.Data[i] * inv
		for j := 0; j < plane; j++ {
			dx.Data[i*plane+j] = g
		}
	}
	return dx
}

// AvgPool2d performs non-overlapping k×k average pooling (stride = k).
type AvgPool2d struct {
	name     string
	K        int
	h, w     int
	lastSpec Spec
}

// NewAvgPool2d constructs a k×k average pool.
func NewAvgPool2d(name string, k int) *AvgPool2d { return &AvgPool2d{name: name, K: k} }

// Name implements Layer.
func (p *AvgPool2d) Name() string { return p.name }

// Params implements Layer.
func (p *AvgPool2d) Params() []*Param { return nil }

// Spec implements Layer.
func (p *AvgPool2d) Spec() Spec { return p.lastSpec }

// Forward implements Layer.
func (p *AvgPool2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.h, p.w = h, w
	oh, ow := h/p.K, w/p.K
	y := tensor.New(n, c, oh, ow)
	inv := 1 / float32(p.K*p.K)
	for i := 0; i < n*c; i++ {
		src := x.Data[i*h*w : (i+1)*h*w]
		dst := y.Data[i*oh*ow : (i+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := float32(0)
				for ky := 0; ky < p.K; ky++ {
					for kx := 0; kx < p.K; kx++ {
						s += src[(oy*p.K+ky)*w+ox*p.K+kx]
					}
				}
				dst[oy*ow+ox] = s * inv
			}
		}
	}
	p.lastSpec = Spec{Kind: KindPool, LayerName: p.name, OutElems: int64(y.Numel()), Batch: int64(n)}
	return y
}

// Backward implements Layer.
func (p *AvgPool2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, oh, ow := grad.Dim(0), grad.Dim(1), grad.Dim(2), grad.Dim(3)
	dx := tensor.New(n, c, p.h, p.w)
	inv := 1 / float32(p.K*p.K)
	for i := 0; i < n*c; i++ {
		src := grad.Data[i*oh*ow : (i+1)*oh*ow]
		dst := dx.Data[i*p.h*p.w : (i+1)*p.h*p.w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := src[oy*ow+ox] * inv
				for ky := 0; ky < p.K; ky++ {
					for kx := 0; kx < p.K; kx++ {
						dst[(oy*p.K+ky)*p.w+ox*p.K+kx] = g
					}
				}
			}
		}
	}
	return dx
}

// Flatten reshapes [N, ...] to [N, prod(...)].
type Flatten struct {
	name     string
	shape    []int
	lastSpec Spec
}

// NewFlatten constructs a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Spec implements Layer.
func (f *Flatten) Spec() Spec { return f.lastSpec }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.shape = append(f.shape[:0], x.Shape()...)
	n := x.Dim(0)
	f.lastSpec = Spec{Kind: KindOther, LayerName: f.name, OutElems: int64(x.Numel()), Batch: int64(n)}
	return x.Reshape(n, x.Numel()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.shape...)
}
