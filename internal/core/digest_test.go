package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/tensor"
)

// Model-level golden digests: for each of the paper's four models at
// repro scale and each algorithm, the SHA-256 of every batch's logits and
// of the BN state (γ/β, running mean/var) after the run. They pin every
// output bit of the forward, backward and update kernels end to end, so a
// kernel rewrite that claims bit identity is checked against the digests
// the previous kernels recorded. Regenerate only for an intended change
// of output bits:
//
//	go test ./internal/core -run TestModelGoldenDigests -update-digests
var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/model_digests.json")

const digestPath = "testdata/model_digests.json"

const (
	digestSeed    = 5
	digestBatches = 4
	digestBatch   = 50
)

type digestCase struct {
	Model  string   `json:"model"`
	Algo   string   `json:"algo"`
	Logits []string `json:"logits"` // one digest per batch
	Affine string   `json:"bn_affine"`
	Stats  string   `json:"bn_running"`
}

type digestFile struct {
	Note  string       `json:"note"`
	Seed  int64        `json:"seed"`
	Batch int          `json:"batch"`
	Cases []digestCase `json:"cases"`
}

func f32Digest(vs ...[]float32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range vs {
		for _, f := range v {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runDigestCase builds the model from digestSeed, runs digestBatches
// batches through the adapter and digests the results.
func runDigestCase(t *testing.T, tag string, algo Algorithm) digestCase {
	t.Helper()
	m, err := models.ByTag(tag, rand.New(rand.NewSource(digestSeed)), models.ReproScale)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(algo, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(digestSeed + 1))
	c := digestCase{Model: tag, Algo: algo.String()}
	for i := 0; i < digestBatches; i++ {
		x := tensor.New(digestBatch, m.InC, m.InHW, m.InHW)
		// Shift and scale each batch so the BN statistics see a range of
		// offsets, as a corruption stream does.
		x.Uniform(rng, -0.5+float64(i), 1.5+3*float64(i))
		c.Logits = append(c.Logits, f32Digest(a.Process(x).Data))
	}
	var affine, stats [][]float32
	for _, bn := range m.BatchNorms() {
		affine = append(affine, bn.Gamma.Data, bn.Beta.Data)
		stats = append(stats, bn.RunningMean, bn.RunningVar)
	}
	c.Affine, c.Stats = f32Digest(affine...), f32Digest(stats...)
	return c
}

// TestModelGoldenDigests checks every model × algorithm against the
// recorded digests, bit for bit.
func TestModelGoldenDigests(t *testing.T) {
	// The digests record the default amd64 dispatch. The FMA opt-in fuses
	// roundings, the im2col switch takes the strip backward (whose dX is
	// not bitwise the packed one), and a build without AVX2 reduces dot
	// products in another order: each gives different, equally
	// deterministic bits.
	switch {
	case tensor.FMAEnabled():
		t.Skip("EDGETTA_FMA=1 fuses multiply-add roundings; the digests record the unfused kernels")
	case !tensor.PackedEnabled():
		t.Skip("EDGETTA_PACKED=0 runs the strip backward; the digests record the packed path")
	case !tensor.AVX2Supported():
		t.Skip("no AVX2 dispatch: dot products reduce in scalar order; the digests record the AVX2 kernels")
	}
	tags := []string{"WRN-AM", "RXT-AM", "R18-AM-AT", "MBV2"}
	var got []digestCase
	for _, tag := range tags {
		for _, algo := range Algorithms {
			got = append(got, runDigestCase(t, tag, algo))
		}
	}
	if *updateDigests {
		f := digestFile{
			Note:  "SHA-256 of little-endian float32 logits per batch and of BN gamma/beta and running mean/var after the run; see digest_test.go",
			Seed:  digestSeed,
			Batch: digestBatch,
			Cases: got,
		}
		b, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	var want digestFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != digestSeed || want.Batch != digestBatch || len(want.Cases) != len(got) {
		t.Fatalf("digest file records seed %d batch %d, %d cases; test runs seed %d batch %d, %d cases",
			want.Seed, want.Batch, len(want.Cases), digestSeed, digestBatch, len(got))
	}
	for i, g := range got {
		w := want.Cases[i]
		if g.Model != w.Model || g.Algo != w.Algo {
			t.Fatalf("case %d is %s/%s, file has %s/%s", i, g.Model, g.Algo, w.Model, w.Algo)
		}
		for j := range g.Logits {
			if j >= len(w.Logits) || g.Logits[j] != w.Logits[j] {
				t.Errorf("%s %s: batch %d logits digest changed", g.Model, g.Algo, j)
				break
			}
		}
		if g.Affine != w.Affine {
			t.Errorf("%s %s: BN gamma/beta digest changed", g.Model, g.Algo)
		}
		if g.Stats != w.Stats {
			t.Errorf("%s %s: BN running-statistics digest changed", g.Model, g.Algo)
		}
	}
}
