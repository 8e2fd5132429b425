package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
	"edgetta/internal/train"
)

func tinyModel(seed int64) *models.Model {
	return models.WideResNet402(rand.New(rand.NewSource(seed)), models.ReproScale)
}

func TestAlgorithmStrings(t *testing.T) {
	if NoAdapt.String() != "No-Adapt" || BNNorm.String() != "BN-Norm" || BNOpt.String() != "BN-Opt" {
		t.Fatal("algorithm names do not match the paper")
	}
	if Algorithm(9).String() != "unknown" {
		t.Fatal("unknown algorithm should stringify as unknown")
	}
}

func TestNewReturnsCorrectAdapter(t *testing.T) {
	m := tinyModel(1)
	for _, algo := range Algorithms {
		a, err := New(algo, m, Config{})
		if err != nil {
			t.Fatalf("New(%v): %v", algo, err)
		}
		if a.Algorithm() != algo {
			t.Fatalf("New(%v) returned %v", algo, a.Algorithm())
		}
	}
	if _, err := New(Algorithm(42), m, Config{}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestBNNormArmsBatchStats(t *testing.T) {
	m := tinyModel(2)
	if _, err := New(BNNorm, m, Config{}); err != nil {
		t.Fatal(err)
	}
	for _, bn := range m.BatchNorms() {
		if !bn.UseBatchStats {
			t.Fatalf("BN %s not armed for batch statistics", bn.Name())
		}
	}
	// Constructing NoAdapt afterwards must disarm them.
	if _, err := New(NoAdapt, m, Config{}); err != nil {
		t.Fatal(err)
	}
	for _, bn := range m.BatchNorms() {
		if bn.UseBatchStats {
			t.Fatalf("BN %s still armed under NoAdapt", bn.Name())
		}
	}
}

func TestNoAdaptIsStateless(t *testing.T) {
	m := tinyModel(3)
	a, _ := New(NoAdapt, m, Config{})
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(4, 3, 32, 32)
	x.Randn(rng, 1)
	y1 := a.Process(x)
	y2 := a.Process(x)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("NoAdapt must be deterministic and stateless")
		}
	}
}

func TestBNNormShiftsWithDistribution(t *testing.T) {
	m := tinyModel(4)
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(8, 3, 32, 32)
	x.Uniform(rng, 0, 1)
	shifted := x.Clone()
	for i := range shifted.Data {
		shifted.Data[i] = shifted.Data[i]*0.3 + 0.6 // strong covariate shift
	}
	// The shift is affine, so batch renormalization at the first BN should
	// make the network's outputs nearly shift-invariant, while frozen
	// running stats (NoAdapt) pass the full shift through.
	na, _ := New(NoAdapt, m, Config{})
	yClean := na.Process(x).Clone()
	yShift := na.Process(shifted).Clone()
	bn, _ := New(BNNorm, m, Config{})
	yCleanBN := bn.Process(x).Clone()
	yShiftBN := bn.Process(shifted).Clone()
	dNo, dAdapt := 0.0, 0.0
	for i := range yClean.Data {
		dNo += math.Abs(float64(yShift.Data[i] - yClean.Data[i]))
		dAdapt += math.Abs(float64(yShiftBN.Data[i] - yCleanBN.Data[i]))
	}
	if dAdapt >= dNo/2 {
		t.Fatalf("BN-Norm did not counteract the shift: %.3f vs %.3f", dAdapt, dNo)
	}
}

func TestBNOptUpdatesOnlyBNParams(t *testing.T) {
	m := tinyModel(5)
	ref := tinyModel(5) // identical clone by construction seed
	a, _ := New(BNOpt, m, Config{})
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(8, 3, 32, 32)
	x.Uniform(rng, 0, 1)
	a.Process(x)
	if !VerifyOnlyBNAdapted(m.Params(), ref.Params()) {
		t.Fatal("BN-Opt modified non-BN parameters")
	}
	// And it must actually have changed some gamma/beta.
	changed := false
	bnsM, bnsRef := m.BatchNorms(), ref.BatchNorms()
	for i := range bnsM {
		for j := range bnsM[i].Gamma.Data {
			if bnsM[i].Gamma.Data[j] != bnsRef[i].Gamma.Data[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("BN-Opt did not update any gamma")
	}
}

// TestBNOptFreezesAllButBNAffine: BN-Opt arms every parameter except BN
// γ/β as frozen, so backpropagation leaves their gradients untouched and
// Process needs no whole-net gradient reset.
func TestBNOptFreezesAllButBNAffine(t *testing.T) {
	m := tinyModel(5)
	a, _ := New(BNOpt, m, Config{})
	affine := map[*nn.Param]bool{}
	for _, bn := range m.BatchNorms() {
		affine[bn.Gamma], affine[bn.Beta] = true, true
	}
	x := tensor.New(8, 3, 32, 32)
	x.Uniform(rand.New(rand.NewSource(3)), 0, 1)
	a.Process(x)
	a.Reset() // re-arms; the bits must survive it
	a.Process(x)
	for _, p := range m.Params() {
		if p.Frozen == affine[p] {
			t.Fatalf("%s: frozen=%v", p.Name, p.Frozen)
		}
		if p.Frozen {
			for _, g := range p.Grad {
				if g != 0 {
					t.Fatalf("%s: frozen param accumulated a gradient", p.Name)
				}
			}
		}
	}
}

// TestBNOptDeterministicAcrossWorkerCounts: BN-Opt's backward runs its
// frozen stride-1 convs on the packed input-gradient path, whose order is
// fixed by the kernel, so adapted logits stay bit-identical at 1 and 8
// workers across consecutive adaptation steps.
func TestBNOptDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) [][]float32 {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		a, _ := New(BNOpt, tinyModel(11), Config{})
		rng := rand.New(rand.NewSource(13))
		var out [][]float32
		for i := 0; i < 3; i++ {
			x := tensor.New(8, 3, 32, 32)
			x.Uniform(rng, 0, 1)
			out = append(out, append([]float32(nil), a.Process(x).Data...))
		}
		return out
	}
	one, eight := run(1), run(8)
	for i := range one {
		for j := range one[i] {
			if math.Float32bits(one[i][j]) != math.Float32bits(eight[i][j]) {
				t.Fatalf("batch %d: BN-Opt logits differ between 1 and 8 workers", i)
			}
		}
	}
}

func TestBNOptReducesEntropyOnFixedBatch(t *testing.T) {
	m := tinyModel(6)
	a, _ := New(BNOpt, m, Config{LR: 5e-3})
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(16, 3, 32, 32)
	x.Uniform(rng, 0, 1)
	first, _ := nn.MeanEntropy(a.Process(x))
	var last float64
	for i := 0; i < 10; i++ {
		last, _ = nn.MeanEntropy(a.Process(x))
	}
	if last >= first {
		t.Fatalf("entropy did not decrease: %.4f -> %.4f", first, last)
	}
}

func TestResetRestoresState(t *testing.T) {
	m := tinyModel(7)
	bns := m.BatchNorms()
	g0 := append([]float32(nil), bns[0].Gamma.Data...)
	rm0 := append([]float32(nil), bns[0].RunningMean...)
	a, _ := New(BNOpt, m, Config{LR: 1e-2})
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(8, 3, 32, 32)
	x.Uniform(rng, 0, 1)
	for i := 0; i < 3; i++ {
		a.Process(x)
	}
	a.Reset()
	for j := range g0 {
		if bns[0].Gamma.Data[j] != g0[j] {
			t.Fatal("Reset did not restore gamma")
		}
	}
	for j := range rm0 {
		if bns[0].RunningMean[j] != rm0[j] {
			t.Fatal("Reset did not restore running mean")
		}
	}
	// Reset must also clear Adam state: a fresh Process from identical
	// state must reproduce the first step exactly.
	y1 := a.Process(x).Clone()
	a.Reset()
	y2 := a.Process(x).Clone()
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("Reset did not restore optimizer state")
		}
	}
}

func TestRunStreamCountsSamples(t *testing.T) {
	m := tinyModel(8)
	gen := data.NewGenerator(20)
	a, _ := New(NoAdapt, m, Config{})
	res := RunStream(a, gen.NewStream(1, 120, data.GaussianNoise, 3), 50)
	if res.Samples != 120 || res.Batches != 3 {
		t.Fatalf("stream result %+v", res)
	}
	if res.ErrorRate < 0 || res.ErrorRate > 1 {
		t.Fatalf("error rate %v", res.ErrorRate)
	}
}

// trainedModel is shared by the integration tests below; training even the
// tiny model takes tens of seconds.
var (
	trainedOnce  sync.Once
	trainedTiny  *models.Model
	trainedClean float64
	trainedGen   *data.Generator
)

func getTrained(t *testing.T) (*models.Model, *data.Generator) {
	t.Helper()
	trainedOnce.Do(func() {
		trainedGen = data.NewGenerator(100)
		trainedTiny = tinyModel(42)
		train.Train(trainedTiny, trainedGen, train.Config{
			Regime: train.Plain, Epochs: 4, TrainSize: 1024, BatchSize: 64,
			LR: 3e-3, Seed: 7, Quiet: true,
		})
		trainedClean = train.Evaluate(trainedTiny, trainedGen, 1, 300, 100)
	})
	return trainedTiny, trainedGen
}

func TestTrainedModelLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration skipped in -short")
	}
	_, _ = getTrained(t)
	if trainedClean > 0.5 {
		t.Fatalf("tiny model failed to learn: clean error %.3f", trainedClean)
	}
}

// TestPaperOrderingOnCorruptedStream is the repo's headline integration
// test: on a corrupted stream, BN-Norm must beat No-Adapt, and BN-Opt must
// be at least comparable to BN-Norm (Fig. 2's ordering).
func TestPaperOrderingOnCorruptedStream(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration skipped in -short")
	}
	m, gen := getTrained(t)
	errOf := func(algo Algorithm) float64 {
		a, err := New(algo, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		cs := []data.Corruption{data.Fog, data.Contrast}
		for i, c := range cs {
			total += RunStream(a, gen.NewStream(int64(900+i), 400, c, 5), 50).ErrorRate
		}
		return total / float64(len(cs))
	}
	eNo, eNorm, eOpt := errOf(NoAdapt), errOf(BNNorm), errOf(BNOpt)
	t.Logf("no-adapt %.3f, bn-norm %.3f, bn-opt %.3f", eNo, eNorm, eOpt)
	if eNorm >= eNo-0.02 {
		t.Fatalf("BN-Norm (%.3f) should clearly beat No-Adapt (%.3f)", eNorm, eNo)
	}
	if eOpt > eNorm+0.03 {
		t.Fatalf("BN-Opt (%.3f) should be at least comparable to BN-Norm (%.3f)", eOpt, eNorm)
	}
}

// TestBatchSizeDiminishingReturns checks Fig. 2's batch-size trend: larger
// adaptation batches do not hurt, and the 50→100 gain exceeds 100→200.
func TestBatchSizeDiminishingReturns(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration skipped in -short")
	}
	m, gen := getTrained(t)
	errAt := func(batch int) float64 {
		a, _ := New(BNNorm, m, Config{})
		total := 0.0
		cs := []data.Corruption{data.Fog, data.Contrast}
		for i, c := range cs {
			total += RunStream(a, gen.NewStream(int64(1200+i), 400, c, 5), batch).ErrorRate
		}
		return total / float64(len(cs))
	}
	e50, e200 := errAt(50), errAt(200)
	t.Logf("err@50 %.3f err@200 %.3f", e50, e200)
	if e200 > e50+0.05 {
		t.Fatalf("larger adaptation batches should not hurt: %.3f@50 vs %.3f@200", e50, e200)
	}
}

func TestVerifyOnlyBNAdapted(t *testing.T) {
	a, b := tinyModel(9), tinyModel(9)
	if !VerifyOnlyBNAdapted(a.Params(), b.Params()) {
		t.Fatal("identical models must verify")
	}
	// Perturb a conv weight: must fail.
	for _, p := range a.Params() {
		if p.Name == "conv1.weight" {
			p.Data[0] += 1
		}
	}
	if VerifyOnlyBNAdapted(a.Params(), b.Params()) {
		t.Fatal("conv perturbation must be detected")
	}
}
