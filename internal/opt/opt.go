// Package opt implements the optimizer the study needs: Adam, used by
// BN-Opt's single adaptation step (following the paper and TENT) and by
// the offline robust training of the repro-scale models.
package opt

import (
	"math"

	"edgetta/internal/nn"
)

// Adam implements Kingma & Ba's Adam with PyTorch-default hyperparameters.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	params []*nn.Param
	m, v   [][]float32
	t      int
}

// NewAdam constructs Adam over params with the given learning rate and
// defaults beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(params []*nn.Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([][]float32, len(params))
	a.v = make([][]float32, len(params))
	for i, p := range params {
		a.m[i] = make([]float32, len(p.Data))
		a.v[i] = make([]float32, len(p.Data))
	}
	return a
}

// Params returns the parameter set.
func (a *Adam) Params() []*nn.Param { return a.params }

// ZeroGrad clears all gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// Step applies one Adam update.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			g := float64(p.Grad[j])
			if a.WeightDecay != 0 {
				g += a.WeightDecay * float64(p.Data[j])
			}
			mj := a.Beta1*float64(m[j]) + (1-a.Beta1)*g
			vj := a.Beta2*float64(v[j]) + (1-a.Beta2)*g*g
			m[j], v[j] = float32(mj), float32(vj)
			p.Data[j] -= float32(a.LR * (mj / bc1) / (math.Sqrt(vj/bc2) + a.Eps))
		}
		p.MarkUpdated()
	}
}

// AdamState is a deep copy of Adam's mutable state: the per-parameter
// moment estimates and the step count. The serving layer captures and
// restores it to multiplex many independent adaptation streams over one
// shared optimizer-plus-model replica.
type AdamState struct {
	M, V [][]float32
	T    int
}

// CaptureState deep-copies the optimizer's mutable state.
func (a *Adam) CaptureState() *AdamState {
	s := &AdamState{T: a.t,
		M: make([][]float32, len(a.m)), V: make([][]float32, len(a.v))}
	for i := range a.m {
		s.M[i] = append([]float32(nil), a.m[i]...)
		s.V[i] = append([]float32(nil), a.v[i]...)
	}
	return s
}

// RestoreState installs a previously captured state. The state must come
// from an Adam over the same parameter shapes (e.g. a replica of the same
// model); it panics otherwise.
func (a *Adam) RestoreState(s *AdamState) {
	// Validate everything before mutating anything, so a panic cannot
	// leave the optimizer half-restored.
	if len(s.M) != len(a.m) || len(s.V) != len(a.v) {
		panic("opt: AdamState parameter count mismatch")
	}
	for i := range a.m {
		if len(s.M[i]) != len(a.m[i]) || len(s.V[i]) != len(a.v[i]) {
			panic("opt: AdamState moment length mismatch")
		}
	}
	a.t = s.T
	for i := range a.m {
		copy(a.m[i], s.M[i])
		copy(a.v[i], s.V[i])
	}
}
