// Package fixture owns what the benchmark and its server process share:
// the manifest, the shipped trained weights and the recipe that made them.
// Weights are verified against the manifest's SHA-256 before a model
// adopts them; a mismatch is an error, never a silent retrain.
package fixture

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/serialize"
	"edgetta/internal/train"
)

// Manifest is the part of perfbench/manifest.json the programs read. The
// rest of that file documents the benchmark for readers.
type Manifest struct {
	// DatasetSeed fixes SynCIFAR's class templates. Training and every
	// workload draw from the same dataset; the workload seed only drives
	// which samples and corruptions are drawn.
	DatasetSeed int64             `json:"dataset_seed"`
	Recipe      Recipe            `json:"recipe"`
	Weights     map[string]Weight `json:"weights"`
	OpenLoop    OpenLoop          `json:"open_loop"`
}

// Recipe is the seeded training run that produced the shipped weights.
type Recipe struct {
	Regime    string `json:"regime"`
	Epochs    int    `json:"epochs"`
	TrainSize int    `json:"train_size"`
	BatchSize int    `json:"batch_size"`
	Seed      int64  `json:"seed"`
	InitSeed  int64  `json:"init_seed"`
}

// Weight names one shipped checkpoint and its expected digest.
type Weight struct {
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
}

// OpenLoop fixes the open-noadapt arrival ladder: absolute request rates,
// sized against the seed commit's measured capacity, and the latency limit
// max_rate_req_s is judged by.
type OpenLoop struct {
	RatesReqS      []float64 `json:"rates_req_s"`
	Mid            int       `json:"mid_rung"`
	High           int       `json:"high_rung"`
	LatencyLimitMS float64   `json:"latency_limit_ms"`
}

// LoadManifest reads dir/manifest.json.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("parse manifest: %w", err)
	}
	return &m, nil
}

// Build constructs the repro-scale architecture with the recipe's init
// seed, before any weights are loaded.
func (m *Manifest) Build(tag string) (*models.Model, error) {
	return models.ByTag(tag, rand.New(rand.NewSource(m.Recipe.InitSeed)), models.ReproScale)
}

// LoadModel builds the model for tag and adopts the shipped weights after
// checking their SHA-256 against the manifest.
func (m *Manifest) LoadModel(dir, tag string) (*models.Model, error) {
	w, ok := m.Weights[tag]
	if !ok {
		return nil, fmt.Errorf("manifest lists no weights for %s", tag)
	}
	path := filepath.Join(dir, w.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read weights: %w", err)
	}
	if got := Digest(raw); got != w.SHA256 {
		return nil, fmt.Errorf("weights %s: sha256 %s, manifest wants %s (rerun the recipe with --train and review the change)", path, got, w.SHA256)
	}
	model, err := m.Build(tag)
	if err != nil {
		return nil, err
	}
	if err := serialize.Load(bytes.NewReader(raw), model); err != nil {
		return nil, fmt.Errorf("load weights %s: %w", path, err)
	}
	return model, nil
}

// Train reruns the recipe for tag and returns the trained model.
func (m *Manifest) Train(tag string) (*models.Model, error) {
	model, err := m.Build(tag)
	if err != nil {
		return nil, err
	}
	regime := train.Plain
	switch m.Recipe.Regime {
	case "robust":
		regime = train.Robust
	case "plain":
	default:
		return nil, fmt.Errorf("recipe: unknown regime %q", m.Recipe.Regime)
	}
	train.Train(model, data.NewGenerator(m.DatasetSeed), train.Config{
		Regime: regime, Epochs: m.Recipe.Epochs, TrainSize: m.Recipe.TrainSize,
		BatchSize: m.Recipe.BatchSize, Seed: m.Recipe.Seed, Quiet: true,
	})
	return model, nil
}

// Digest is the hex SHA-256 of b.
func Digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// ServerReport is what the benchmark's server process returns from
// GET /bench/report: its own peak memory, pool width, and — on a traced
// run — the layer profile of the timed window and one sample per wire
// submit handled.
type ServerReport struct {
	VmHWMKB    int64           `json:"vmhwm_kb"`
	Workers    int             `json:"workers"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NN         nn.PhaseTotals  `json:"nn"`
	Handler    []HandlerSample `json:"handler,omitempty"`
}

// HandlerSample times one httpapi.Handler.ServeHTTP call for a submit.
// Req is the benchmark's request id, carried in the ReqHeader header.
type HandlerSample struct {
	Req       int64 `json:"req"`
	Start     int64 `json:"start_unix_ns"`
	End       int64 `json:"end_unix_ns"`
	ReqBytes  int64 `json:"req_bytes"`
	RespBytes int64 `json:"resp_bytes"`
}

// ReqHeader carries the benchmark's request id to the server process.
const ReqHeader = "X-Bench-Req"

// PeakRSSKB reads the process's peak resident set (VmHWM) from
// /proc/self/status.
func PeakRSSKB() (int64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// CPUTime is the CPU time (user plus system, all threads) the process has
// used. Unlike wall time it does not grow while the host runs another
// guest on this machine's vCPUs, so it measures the work done.
func CPUTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
