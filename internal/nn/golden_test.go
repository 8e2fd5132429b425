package nn

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"edgetta/internal/tensor"
)

// Golden backward vectors for one WRN-AM block, recorded phase by phase:
// every conv and BN layer's output gradient dY together with the dX, dγ
// and dβ the strip oracle produced for it. A second backward
// implementation is then checked layer by layer against the same
// inputs, so a discrepancy names the layer that caused it. Regenerate
// (from the strip oracle) with:
//
//	go test ./internal/nn -run TestWRNBlockBackwardGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata golden vectors from the strip oracle")

const goldenPath = "testdata/wrn_block_backward.json"

// goldenSeed, and the geometry below, fix the block's weights, BN affine
// parameters, input and output gradient. The channel widths are WRN-AM's
// group1.0 block (16→32, stride 1, 1×1 shortcut); batch and spatial size
// are shrunk to keep the vectors small.
const (
	goldenSeed                             = 61
	goldenN, goldenIn, goldenOut, goldenHW = 2, 16, 32, 4
)

// goldenLayer is one layer's recorded backward phase. Vectors are
// little-endian float32 bytes (base64 in the JSON).
type goldenLayer struct {
	Layer  string `json:"layer"`
	DY     []byte `json:"dy"`
	DX     []byte `json:"dx"`
	DGamma []byte `json:"dgamma,omitempty"`
	DBeta  []byte `json:"dbeta,omitempty"`
}

type goldenFile struct {
	Note   string        `json:"note"`
	Seed   int64         `json:"seed"`
	Shape  [4]int        `json:"shape"` // batch, in, out, spatial
	X      []byte        `json:"x"`
	Layers []goldenLayer `json:"layers"`
}

func f32Bytes(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return b
}

func bytesF32(b []byte) []float32 {
	v := make([]float32, len(b)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

// goldenBlock is models.PreActBlock's layer set, built here so each
// layer's Backward can be driven on its own. Conv weights are frozen, as
// BN-Opt runs them.
type goldenBlock struct {
	bn1, bn2             *BatchNorm2d
	relu1, relu2         *ReLU
	conv1, conv2, convSC *Conv2d
}

func newGoldenBlock(rng *rand.Rand) *goldenBlock {
	b := &goldenBlock{
		bn1:    NewBatchNorm2d("bn1", goldenIn),
		relu1:  NewReLU("relu1"),
		conv1:  NewConv2d("conv1", rng, goldenIn, goldenOut, 3, 1, 1, 1),
		bn2:    NewBatchNorm2d("bn2", goldenOut),
		relu2:  NewReLU("relu2"),
		conv2:  NewConv2d("conv2", rng, goldenOut, goldenOut, 3, 1, 1, 1),
		convSC: NewConv2d("shortcut", rng, goldenIn, goldenOut, 1, 1, 0, 1),
	}
	for _, bn := range []*BatchNorm2d{b.bn1, b.bn2} {
		bn.UseBatchStats = true
		for c := range bn.Gamma.Data {
			bn.Gamma.Data[c] = float32(1 + 0.2*rng.NormFloat64())
			bn.Beta.Data[c] = float32(0.1 * rng.NormFloat64())
		}
		bn.Gamma.MarkUpdated()
		bn.Beta.MarkUpdated()
	}
	for _, c := range []*Conv2d{b.conv1, b.conv2, b.convSC} {
		c.Weight.Frozen = true
	}
	return b
}

// forward runs the block as PreActBlock.Forward does, filling every
// layer's backward cache.
func (b *goldenBlock) forward(x *tensor.Tensor) {
	a := b.relu1.Forward(b.bn1.Forward(x, false), false)
	b.convSC.Forward(a, false)
	b.conv2.Forward(b.relu2.Forward(b.bn2.Forward(b.conv1.Forward(a, false), false), false), false)
}

// record runs the block's backward from output gradient g, in
// PreActBlock.Backward's order, and records each conv and BN phase.
func (b *goldenBlock) record(g *tensor.Tensor) []goldenLayer {
	var out []goldenLayer
	phase := func(l Layer, dy *tensor.Tensor) *tensor.Tensor {
		dx := l.Backward(dy)
		rec := goldenLayer{Layer: l.Name(), DY: f32Bytes(dy.Data), DX: f32Bytes(dx.Data)}
		if bn, ok := l.(*BatchNorm2d); ok {
			rec.DGamma, rec.DBeta = f32Bytes(bn.Gamma.Grad), f32Bytes(bn.Beta.Grad)
		}
		out = append(out, rec)
		return dx
	}
	dh := phase(b.conv1, phase(b.bn2, b.relu2.Backward(phase(b.conv2, g))))
	dh.Add(phase(b.convSC, g))
	phase(b.bn1, b.relu1.Backward(dh))
	return out
}

func (b *goldenBlock) layer(name string) Layer {
	for _, l := range []Layer{b.bn1, b.bn2, b.conv1, b.conv2, b.convSC} {
		if l.Name() == name {
			return l
		}
	}
	return nil
}

func generateGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(goldenSeed))
	b := newGoldenBlock(rng)
	x := tensor.New(goldenN, goldenIn, goldenHW, goldenHW)
	x.Randn(rng, 1)
	g := tensor.New(goldenN, goldenOut, goldenHW, goldenHW)
	g.Randn(rng, 1)
	b.forward(x)
	f := goldenFile{
		Note:   "WRN-AM group1.0 block backward, strip oracle; see golden_test.go",
		Seed:   goldenSeed,
		Shape:  [4]int{goldenN, goldenIn, goldenOut, goldenHW},
		X:      f32Bytes(x.Data),
		Layers: b.record(g),
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWRNBlockBackwardGolden checks both conv backward paths against the
// recorded vectors, each layer fed its recorded dY. The strip path must
// reproduce them bit for bit; the packed input gradient within
// packedGradTol. BN phases do not depend on the conv path and must match
// bitwise under both. The forward pass that fills the BN caches runs with
// FMA off, where packed and im2col forward are bit-identical.
func TestWRNBlockBackwardGolden(t *testing.T) {
	wasFMA, wasPacked := tensor.FMAEnabled(), tensor.PackedEnabled()
	defer tensor.SetFMA(wasFMA)
	defer tensor.SetPacked(wasPacked)
	tensor.SetFMA(false)
	if *updateGolden {
		tensor.SetPacked(false)
		generateGolden(t)
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var f goldenFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Seed != goldenSeed || f.Shape != [4]int{goldenN, goldenIn, goldenOut, goldenHW} || len(f.Layers) != 5 {
		t.Fatalf("golden file does not describe this block (seed %d, shape %v, %d layers)", f.Seed, f.Shape, len(f.Layers))
	}
	for _, packed := range []bool{false, true} {
		tensor.SetPacked(packed)
		b := newGoldenBlock(rand.New(rand.NewSource(goldenSeed)))
		b.forward(tensor.FromSlice(bytesF32(f.X), goldenN, goldenIn, goldenHW, goldenHW))
		for _, rec := range f.Layers {
			l := b.layer(rec.Layer)
			if l == nil {
				t.Fatalf("golden layer %q not in the block", rec.Layer)
			}
			dy := bytesF32(rec.DY)
			var shape []int
			isConv := false
			switch l := l.(type) {
			case *Conv2d:
				shape, isConv = []int{goldenN, l.OutC, goldenHW, goldenHW}, true
			case *BatchNorm2d:
				shape = []int{goldenN, l.C, goldenHW, goldenHW}
				l.Gamma.ZeroGrad()
				l.Beta.ZeroGrad()
			}
			dx := l.Backward(tensor.FromSlice(dy, shape...)).Data
			want := bytesF32(rec.DX)
			switch {
			case packed && isConv:
				if d := maxRelDiff(dx, want); d > packedGradTol {
					t.Errorf("packed %s: dX off the golden vector by %.3g (tolerance %g)", rec.Layer, d, packedGradTol)
				}
			case !float32BitsEqual(dx, want):
				t.Errorf("packed=%v %s: dX differs from the golden vector", packed, rec.Layer)
			}
			if bn, ok := l.(*BatchNorm2d); ok {
				if !float32BitsEqual(bn.Gamma.Grad, bytesF32(rec.DGamma)) || !float32BitsEqual(bn.Beta.Grad, bytesF32(rec.DBeta)) {
					t.Errorf("packed=%v %s: dγ/dβ differ from the golden vectors", packed, rec.Layer)
				}
			}
		}
	}
}
