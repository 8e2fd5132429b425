// Package core implements the paper's subject: test-time unsupervised DNN
// adaptation. Three algorithms are provided, matching Sec. II and III-D:
//
//   - NoAdapt: plain inference with frozen running BN statistics.
//   - BNNorm (Nado et al. 2020 / Schneider et al. 2020): recompute the BN
//     normalization statistics from the incoming unlabeled test batch.
//   - BNOpt (TENT, Wang et al. 2021): additionally optimize the BN affine
//     transformation parameters (γ, β) by minimizing the Shannon entropy of
//     the model's predictions with one Adam step per batch.
//
// All three present the same Adapter interface so the measurement harness
// can treat them uniformly, and a streaming driver runs the paper's online
// protocol: inference followed by adaptation at every batch of a corrupted
// test stream.
package core

import (
	"fmt"
	"strings"

	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/opt"
	"edgetta/internal/tensor"
)

// Algorithm identifies an adaptation strategy.
type Algorithm int

// The three strategies of the study.
const (
	NoAdapt Algorithm = iota
	BNNorm
	BNOpt
)

// Algorithms lists the strategies in the paper's presentation order.
var Algorithms = []Algorithm{NoAdapt, BNNorm, BNOpt}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case NoAdapt:
		return "No-Adapt"
	case BNNorm:
		return "BN-Norm"
	case BNOpt:
		return "BN-Opt"
	default:
		return "unknown"
	}
}

// ParseAlgorithm resolves an algorithm name. It accepts the paper's
// spelling (the String form: "No-Adapt", "BN-Norm", "BN-Opt") and the
// flag-friendly lowercase variants ("noadapt", "bnnorm", "bnopt"),
// case-insensitively — the single parser behind every CLI flag and the
// serving wire protocol.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.ReplaceAll(s, "-", "")) {
	case "noadapt":
		return NoAdapt, nil
	case "bnnorm":
		return BNNorm, nil
	case "bnopt":
		return BNOpt, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want noadapt, bnnorm or bnopt)", s)
}

// Config tunes the adaptation algorithms.
type Config struct {
	// LR is BN-Opt's Adam learning rate (TENT's default 1e-3 if zero).
	LR float64
	// Steps is the number of optimization steps BN-Opt takes per batch
	// (the paper uses a single backpropagation pass; default 1).
	Steps int
	// SourcePrior, when positive, makes BN-Norm blend the re-estimated
	// batch statistics with the source statistics using Schneider et al.'s
	// prior-strength rule (μ = n/(n+N)·μ_batch + N/(n+N)·μ_source). The
	// paper's BN-Norm corresponds to 0 (pure batch statistics).
	SourcePrior float64
}

func (c Config) withDefaults() Config {
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Steps == 0 {
		c.Steps = 1
	}
	return c
}

// Adapter processes test batches, adapting the model according to its
// algorithm, and reports prediction logits for each batch.
type Adapter interface {
	// Algorithm identifies the strategy.
	Algorithm() Algorithm
	// Process runs inference (plus any adaptation) on one unlabeled batch
	// and returns the logits used for prediction.
	Process(x *tensor.Tensor) *tensor.Tensor
	// Reset restores the model and optimizer state captured at
	// construction, so a fresh episode can start (the paper adapts each
	// corruption stream independently).
	Reset()
}

// New constructs the adapter for the given algorithm over the model.
func New(algo Algorithm, m *models.Model, cfg Config) (Adapter, error) {
	cfg = cfg.withDefaults()
	switch algo {
	case NoAdapt:
		return newNoAdapt(m), nil
	case BNNorm:
		return newBNNorm(m, cfg), nil
	case BNOpt:
		return newBNOpt(m, cfg), nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %d", algo)
}

// bnSnapshot captures the adaptable state of every BN layer.
type bnSnapshot struct {
	gamma, beta [][]float32
	rmean, rvar [][]float32
	useBatchWas []bool
}

func snapshotBN(bns []*nn.BatchNorm2d) *bnSnapshot {
	s := &bnSnapshot{}
	for _, bn := range bns {
		s.gamma = append(s.gamma, append([]float32(nil), bn.Gamma.Data...))
		s.beta = append(s.beta, append([]float32(nil), bn.Beta.Data...))
		s.rmean = append(s.rmean, append([]float32(nil), bn.RunningMean...))
		s.rvar = append(s.rvar, append([]float32(nil), bn.RunningVar...))
		s.useBatchWas = append(s.useBatchWas, bn.UseBatchStats)
	}
	return s
}

func (s *bnSnapshot) restore(bns []*nn.BatchNorm2d) {
	for i, bn := range bns {
		copy(bn.Gamma.Data, s.gamma[i])
		copy(bn.Beta.Data, s.beta[i])
		copy(bn.RunningMean, s.rmean[i])
		copy(bn.RunningVar, s.rvar[i])
		// Per the Param contract, in-place Data writes must bump the
		// version so any cache keyed on it is dropped (today only conv
		// weights carry such a cache, but serve's per-stream restore
		// must not be the path that breaks a future BN-keyed one).
		bn.Gamma.MarkUpdated()
		bn.Beta.MarkUpdated()
		bn.UseBatchStats = s.useBatchWas[i]
	}
}

// noAdaptAdapter is the paper's baseline: eval-mode inference only.
type noAdaptAdapter struct {
	m *models.Model
}

func newNoAdapt(m *models.Model) *noAdaptAdapter {
	for _, bn := range m.BatchNorms() {
		bn.UseBatchStats = false
		bn.SourcePrior = 0
	}
	return &noAdaptAdapter{m: m}
}

func (a *noAdaptAdapter) Algorithm() Algorithm { return NoAdapt }

func (a *noAdaptAdapter) Process(x *tensor.Tensor) *tensor.Tensor {
	return a.m.Forward(x, false)
}

func (a *noAdaptAdapter) Reset() {}

// bnNormAdapter recomputes BN statistics from each test batch: the model
// runs with batch statistics (PyTorch train()-mode BN), so normalization
// instantly tracks the corrupted input distribution. Running statistics
// also accumulate across the stream.
type bnNormAdapter struct {
	m    *models.Model
	bns  []*nn.BatchNorm2d
	snap *bnSnapshot
	cfg  Config
}

func newBNNorm(m *models.Model, cfg Config) *bnNormAdapter {
	bns := m.BatchNorms()
	a := &bnNormAdapter{m: m, bns: bns, snap: snapshotBN(bns), cfg: cfg}
	a.arm()
	return a
}

func (a *bnNormAdapter) arm() {
	for _, bn := range a.bns {
		bn.UseBatchStats = true
		bn.SourcePrior = float32(a.cfg.SourcePrior)
		if a.cfg.SourcePrior > 0 {
			bn.SnapshotSource()
		}
	}
}

func (a *bnNormAdapter) Algorithm() Algorithm { return BNNorm }

func (a *bnNormAdapter) Process(x *tensor.Tensor) *tensor.Tensor {
	return a.m.Forward(x, false) // UseBatchStats makes BN re-estimate
}

func (a *bnNormAdapter) Reset() {
	a.snap.restore(a.bns)
	a.arm()
}

// bnLayers exposes the BN state to the lifecycle policy's regularizer.
func (a *bnNormAdapter) bnLayers() ([]*nn.BatchNorm2d, *bnSnapshot) { return a.bns, a.snap }

// bnOptAdapter is TENT: batch-statistics normalization plus one Adam step
// per batch on the BN affine parameters, minimizing prediction entropy.
// Only γ/β receive updates (<1% of model parameters), but computing their
// gradients requires a full backpropagation pass — the cost the paper
// identifies as the key bottleneck on edge CPUs.
type bnOptAdapter struct {
	m     *models.Model
	bns   []*nn.BatchNorm2d
	snap  *bnSnapshot
	cfg   Config
	optim *opt.Adam
}

func newBNOpt(m *models.Model, cfg Config) *bnOptAdapter {
	bns := m.BatchNorms()
	a := &bnOptAdapter{m: m, bns: bns, snap: snapshotBN(bns), cfg: cfg}
	a.arm()
	return a
}

// arm freezes every parameter except BN γ/β, so backpropagation computes
// only the input gradients and the γ/β gradients Adam consumes.
func (a *bnOptAdapter) arm() {
	for _, p := range a.m.Params() {
		p.Frozen = true
	}
	var params []*nn.Param
	for _, bn := range a.bns {
		bn.UseBatchStats = true
		bn.SourcePrior = 0 // BN-Opt backpropagates through pure batch stats
		bn.Gamma.Frozen, bn.Beta.Frozen = false, false
		params = append(params, bn.Gamma, bn.Beta)
	}
	a.optim = opt.NewAdam(params, a.cfg.LR)
}

func (a *bnOptAdapter) Algorithm() Algorithm { return BNOpt }

func (a *bnOptAdapter) Process(x *tensor.Tensor) *tensor.Tensor {
	var logits *tensor.Tensor
	for step := 0; step < a.cfg.Steps; step++ {
		logits = a.m.Forward(x, false) // batch statistics via UseBatchStats
		_, grad := nn.MeanEntropy(logits)
		a.optim.ZeroGrad() // every other param is frozen and gets no grad
		a.m.Backward(grad)
		a.optim.Step()
	}
	return logits
}

func (a *bnOptAdapter) Reset() {
	a.snap.restore(a.bns)
	a.arm()
}

// bnLayers exposes the BN state to the lifecycle policy's regularizer.
func (a *bnOptAdapter) bnLayers() ([]*nn.BatchNorm2d, *bnSnapshot) { return a.bns, a.snap }
