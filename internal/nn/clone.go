package nn

import "fmt"

// Cloner is implemented by layers that can deep-copy themselves. A clone
// shares no mutable backing arrays with the original: parameters, gradient
// accumulators and any statistics buffers are fresh allocations, while
// forward caches start empty (they are repopulated by the next Forward).
// The serving layer relies on this to build independent model replicas.
type Cloner interface {
	CloneLayer() Layer
}

// Clone deep-copies the layer tree rooted at l. It panics if any layer in
// the tree does not implement Cloner — a new layer type must add CloneLayer
// before it can participate in replica-based serving.
func Clone(l Layer) Layer {
	c, ok := l.(Cloner)
	if !ok {
		panic(fmt.Sprintf("nn: %T (%s) does not implement Cloner", l, l.Name()))
	}
	return c.CloneLayer()
}

// clone returns a Param with copied data and a fresh zero gradient. The
// mutation version is preserved so caches keyed on it (packed conv
// weights) stay valid for the clone, and so is the frozen bit.
func (p *Param) clone() *Param {
	return &Param{
		Name:    p.Name,
		Data:    append([]float32(nil), p.Data...),
		Grad:    make([]float32, len(p.Grad)),
		Frozen:  p.Frozen,
		version: p.version,
	}
}

// CloneLayer implements Cloner.
func (s *Sequential) CloneLayer() Layer {
	c := &Sequential{name: s.name, layers: make([]Layer, len(s.layers))}
	for i, l := range s.layers {
		c.layers[i] = Clone(l)
	}
	return c
}

// CloneLayer implements Cloner.
func (r *ReLU) CloneLayer() Layer { return &ReLU{name: r.name, Cap: r.Cap} }

// CloneLayer implements Cloner.
func (l *Linear) CloneLayer() Layer {
	return &Linear{name: l.name, In: l.In, Out: l.Out,
		Weight: l.Weight.clone(), Bias: l.Bias.clone()}
}

// CloneLayer implements Cloner.
func (p *GlobalAvgPool) CloneLayer() Layer { return &GlobalAvgPool{name: p.name} }

// CloneLayer implements Cloner.
func (p *AvgPool2d) CloneLayer() Layer { return &AvgPool2d{name: p.name, K: p.K} }

// CloneLayer implements Cloner.
func (p *MaxPool2d) CloneLayer() Layer { return &MaxPool2d{name: p.name, K: p.K} }

// CloneLayer implements Cloner.
func (f *Flatten) CloneLayer() Layer { return &Flatten{name: f.name} }

// CloneLayer implements Cloner. The clone shares the original's RNG (a
// rand.Rand source cannot be duplicated), so clones must not run training
// forwards concurrently; at inference dropout is the identity and the RNG
// is never touched. None of the study's models include Dropout.
func (d *Dropout) CloneLayer() Layer { return &Dropout{name: d.name, P: d.P, rng: d.rng} }

// CloneLayer implements Cloner. The immutable packed-weight caches are
// shared with the clone (its version still matches the cloned Param), so
// serving replicas of an unadapted model pay for one packed copy instead
// of one per replica; the first weight update on either side repacks
// locally without affecting the other.
func (c *Conv2d) CloneLayer() Layer {
	return &Conv2d{name: c.name, InC: c.InC, OutC: c.OutC,
		K: c.K, Stride: c.Stride, Pad: c.Pad, Groups: c.Groups,
		Weight: c.Weight.clone(), packed: c.packed, packedT: c.packedT}
}

// CloneLayer implements Cloner. All statistics buffers — running, source —
// are copied, along with the adaptation switches internal/core flips, so a
// clone taken mid-adaptation continues from exactly the captured state.
func (b *BatchNorm2d) CloneLayer() Layer {
	c := &BatchNorm2d{
		name: b.name, C: b.C, Eps: b.Eps, Momentum: b.Momentum,
		Gamma: b.Gamma.clone(), Beta: b.Beta.clone(),
		RunningMean:   append([]float32(nil), b.RunningMean...),
		RunningVar:    append([]float32(nil), b.RunningVar...),
		UseBatchStats: b.UseBatchStats,
		SourcePrior:   b.SourcePrior,
	}
	if b.SourceMean != nil {
		c.SourceMean = append([]float32(nil), b.SourceMean...)
	}
	if b.SourceVar != nil {
		c.SourceVar = append([]float32(nil), b.SourceVar...)
	}
	return c
}
