package models

import (
	"math/rand"
	"reflect"
	"testing"

	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// mutableSlices gathers every mutable backing array of the model: parameter
// data and gradients, plus BatchNorm statistics buffers.
func mutableSlices(m *Model) [][]float32 {
	var out [][]float32
	for _, p := range m.Params() {
		out = append(out, p.Data, p.Grad)
	}
	for _, bn := range m.BatchNorms() {
		out = append(out, bn.RunningMean, bn.RunningVar)
		if bn.SourceMean != nil {
			out = append(out, bn.SourceMean)
		}
		if bn.SourceVar != nil {
			out = append(out, bn.SourceVar)
		}
	}
	return out
}

// TestCloneSharesNoBackingArrays is the replica-manager contract: a clone
// must be structurally identical but alias none of the original's mutable
// memory, so concurrent adaptation on clones cannot interfere.
func TestCloneSharesNoBackingArrays(t *testing.T) {
	builders := map[string]Builder{
		"R18": PreActResNet18, "WRN": WideResNet402,
		"RXT": ResNeXt29, "MBV2": MobileNetV2,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			m := build(rand.New(rand.NewSource(7)), ReproScale)
			// Populate SourceMean/Var on one BN so those buffers are covered.
			m.BatchNorms()[0].SnapshotSource()
			c := m.Clone()

			orig, cl := mutableSlices(m), mutableSlices(c)
			if len(orig) != len(cl) {
				t.Fatalf("clone has %d mutable slices, original %d", len(cl), len(orig))
			}
			for i := range orig {
				if len(orig[i]) != len(cl[i]) {
					t.Fatalf("slice %d: length %d vs %d", i, len(orig[i]), len(cl[i]))
				}
				if len(orig[i]) > 0 && &orig[i][0] == &cl[i][0] {
					t.Fatalf("slice %d aliases the original's backing array", i)
				}
			}

			// Same weights must mean same outputs.
			x := tensor.New(2, m.InC, m.InHW, m.InHW)
			x.Randn(rand.New(rand.NewSource(11)), 1)
			y0 := m.Forward(x, false)
			y1 := c.Forward(x, false)
			for i := range y0.Data {
				if y0.Data[i] != y1.Data[i] {
					t.Fatalf("clone forward diverges at %d: %v vs %v", i, y0.Data[i], y1.Data[i])
				}
			}

			// Mutating every clone slice must leave the original untouched.
			before := make([][]float32, len(orig))
			for i, s := range orig {
				before[i] = append([]float32(nil), s...)
			}
			for _, s := range cl {
				for i := range s {
					s[i] += 1
				}
			}
			for i, s := range orig {
				for j := range s {
					if s[j] != before[i][j] {
						t.Fatalf("mutating clone changed original slice %d[%d]", i, j)
					}
				}
			}

			// Forward caches are not cloned: a clone of a model that has
			// run a batch starts with no saved ReLU output, and the outputs
			// it saves on its own batch are its own.
			m.Forward(x, true)
			c2 := m.Clone()
			ro := reluOutputs(t, m)
			for i, out := range reluOutputs(t, c2) {
				if out != nil {
					t.Fatalf("ReLU %d of the clone starts with a saved output", i)
				}
			}
			c2.Forward(x, true)
			for i, out := range reluOutputs(t, c2) {
				if out == nil || ro[i] == nil {
					t.Fatalf("ReLU %d kept no output after a forward pass", i)
				}
				if out == ro[i] || &out.Data[0] == &ro[i].Data[0] {
					t.Fatalf("ReLU %d of the clone shares the original's saved output", i)
				}
			}
		})
	}
}

// reluOutputs returns the saved forward output of every ReLU in the model,
// in walk order. The field is unexported; reflection reads it so the test
// needs no accessor in the nn API.
func reluOutputs(t *testing.T, m *Model) []*tensor.Tensor {
	t.Helper()
	var outs []*tensor.Tensor
	nn.Walk(m.Net, func(l nn.Layer) {
		r, ok := l.(*nn.ReLU)
		if !ok {
			return
		}
		f := reflect.ValueOf(r).Elem().FieldByName("out")
		if !f.IsValid() || f.Type() != reflect.TypeOf((*tensor.Tensor)(nil)) {
			t.Fatal("nn.ReLU has no saved-output field out *tensor.Tensor")
		}
		outs = append(outs, (*tensor.Tensor)(f.UnsafePointer()))
	})
	if len(outs) == 0 {
		t.Fatal("model has no ReLU")
	}
	return outs
}

// TestCloneParamNamesAndStructure checks the clone exposes the same
// parameter set in the same order — the property state snapshot/restore
// across replicas depends on.
func TestCloneParamNamesAndStructure(t *testing.T) {
	m := WideResNet402(rand.New(rand.NewSource(3)), ReproScale)
	c := m.Clone()
	po, pc := m.Params(), c.Params()
	if len(po) != len(pc) {
		t.Fatalf("param count %d vs %d", len(po), len(pc))
	}
	for i := range po {
		if po[i].Name != pc[i].Name {
			t.Fatalf("param %d name %q vs %q", i, po[i].Name, pc[i].Name)
		}
	}
	if len(m.BatchNorms()) != len(c.BatchNorms()) {
		t.Fatalf("BN count differs")
	}
	var no, nc int
	nn.Walk(m.Net, func(nn.Layer) { no++ })
	nn.Walk(c.Net, func(nn.Layer) { nc++ })
	if no != nc {
		t.Fatalf("layer count %d vs %d", no, nc)
	}
}

// TestClonePackedWeightCacheSharedUntilUpdate: replicas of an unadapted
// model must serve from one shared packed-weight buffer per conv (the
// cache is immutable and keyed on the Param version), and a weight update
// on one side must repack locally without corrupting the other — clone
// outputs stay bit-identical to the original's until then.
func TestClonePackedWeightCacheSharedUntilUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := WideResNet402(rng, ReproScale)
	x := tensor.New(2, m.InC, m.InHW, m.InHW)
	x.Uniform(rand.New(rand.NewSource(72)), 0, 1)
	m.Forward(x, false) // warm the packed caches
	c := m.Clone()

	y0 := m.Forward(x, false)
	y1 := c.Forward(x, false)
	for i := range y0.Data {
		if y0.Data[i] != y1.Data[i] {
			t.Fatalf("clone forward differs at %d before any update", i)
		}
	}

	// Scale one conv weight on the clone (with MarkUpdated, per the Param
	// contract). The clone must diverge; the original must not move.
	var conv *nn.Conv2d
	nn.Walk(c.Net, func(l nn.Layer) {
		if cv, ok := l.(*nn.Conv2d); ok && conv == nil && cv.PackedEligible() {
			conv = cv
		}
	})
	if conv == nil {
		t.Fatal("no packed-eligible conv found")
	}
	for i := range conv.Weight.Data {
		conv.Weight.Data[i] *= 2
	}
	conv.Weight.MarkUpdated()

	y0b := m.Forward(x, false)
	y1b := c.Forward(x, false)
	for i := range y0.Data {
		if y0b.Data[i] != y0.Data[i] {
			t.Fatalf("original forward moved at %d after clone-side update", i)
		}
	}
	same := true
	for i := range y1b.Data {
		if y1b.Data[i] != y1.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("clone forward unchanged despite weight update (stale shared cache)")
	}
}
