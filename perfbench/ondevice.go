package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/tensor"
	"edgetta/perfbench/fixture"
)

const (
	adaptBatch = 50 // the paper's adaptation batch size
	severity   = 5
	// episodeBatches per corruption family; 15 episodes make one pass of
	// 105 batches, enough for a p90 with 10 samples beyond it.
	episodeBatches = 7
)

// runOnDevice is the paper's on-device measurement: BN-Opt in process, one
// closed-loop stream, one episode per corruption family with Reset
// between episodes. It completes the first pass, then replays until the
// window has elapsed; every replayed batch must reproduce the first pass
// bit for bit, and error_pct is the first pass's.
func runOnDevice(e *env) (*result, error) {
	r := &result{metrics: map[string]float64{},
		bypassed: []string{"serve.", "httpapi.", "loadgen.", "lat_ms_p50.high", "lat_ms_p95.high", "max_rate_req_s"}}
	gen := data.NewGenerator(e.man.DatasetSeed)
	warm, _ := gen.CorruptedBatch(rand.New(rand.NewSource(subSeed(e.seed, -1))), adaptBatch, data.GaussianNoise, severity)

	var setupCPU, setupWall []float64
	var a core.Adapter
	for i := 0; i < setupReps; i++ {
		t0, c0, err := clocks()
		if err != nil {
			return nil, err
		}
		m, err := e.man.LoadModel(e.dir, "WRN-AM")
		if err != nil {
			return nil, err
		}
		if a, err = core.New(core.BNOpt, m, core.Config{}); err != nil {
			return nil, err
		}
		a.Process(warm) // packs conv weights on first use
		a.Reset()
		wall, c1, err := clocks()
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, (c1 - c0).Seconds())
		setupWall = append(setupWall, wall.Sub(t0).Seconds())
	}

	if e.traced && !nn.StartProfiling() {
		return nil, fmt.Errorf("nn profiler already active")
	}
	var (
		lat          []float64
		processTotal time.Duration
		cpu          []float64 // per-call process CPU time, ms
		firstPass    [][]float32
		wrong, seen  int
		digest       = sha256.New()
	)
	start := time.Now()
	done := func(pass int) bool { return pass > 0 && time.Since(start) >= e.seconds }
	for pass := 0; !done(pass); pass++ {
		for ep, family := range data.AllCorruptions {
			if done(pass) {
				break
			}
			t0 := time.Now()
			a.Reset()
			e.tr.add("core.Reset", 0, 0, t0, time.Now())
			rng := rand.New(rand.NewSource(subSeed(e.seed, ep)))
			for b := 0; b < episodeBatches && !done(pass); b++ {
				x, labels := gen.CorruptedBatch(rng, adaptBatch, family, severity)
				r.attempted++
				t0, c0, err := clocks()
				if err != nil {
					return nil, err
				}
				logits := a.Process(x)
				t1, c1, err := clocks()
				if err != nil {
					return nil, err
				}
				e.tr.add("core.Process", 0, int64(r.attempted), t0, t1)
				lat = append(lat, ms(t1.Sub(t0)))
				processTotal += t1.Sub(t0)
				cpu = append(cpu, ms(c1-c0))
				if e.corruptOne && r.attempted == 1 {
					damage(logits)
				}
				ok := finiteShaped(logits, adaptBatch, 10)
				if pass == 0 {
					hashTensor(digest, x)
					firstPass = append(firstPass, append([]float32(nil), logits.Data...))
					for i, p := range logits.ArgmaxRows() {
						if p != labels[i] {
							wrong++
						}
					}
					seen += len(labels)
				} else if !sameBits(logits.Data, firstPass[ep*episodeBatches+b]) {
					ok = false
				}
				if !ok {
					r.failed++
				}
			}
		}
	}
	window := time.Since(start)
	var prof nn.PhaseTotals
	if e.traced {
		prof = nn.StopProfiling()
	}
	rss, err := fixture.PeakRSSKB()
	if err != nil {
		return nil, err
	}

	d := newDist(lat)
	r.inputDigest = fmt.Sprintf("%x", digest.Sum(nil))
	r.metrics["setup_s"] = median(setupCPU)
	r.metrics["setup_wall_s"] = median(setupWall)
	r.metrics["cpu_ms_per_img"] = median(cpu) / adaptBatch
	r.metrics["img_per_s"] = float64(adaptBatch*r.attempted) / processTotal.Seconds()
	r.metrics["lat_ms_p50"] = d.val(50)
	r.metrics["lat_ms_p90"] = d.val(90)
	r.metrics["lat_ms_p95"] = d.val(95)
	r.metrics["error_pct"] = 100 * float64(wrong) / float64(seen)
	r.metrics["peak_rss_mb"] = float64(rss) / 1024
	r.notes = append(r.notes, tailNote("Adapter.Process latency", d, 90, 95))
	r.note("window %.2fs, %d batches (a pass is %d), error over the first pass (%d images)",
		window.Seconds(), r.attempted, len(firstPass), seen)
	r.note("set-up CPU s %.4v, wall s %.4v", setupCPU, setupWall)
	r.note("cross-check: the seed commit's BenchmarkBNOptRepro (same model, batch, algorithm) read 175 ms/op")

	if e.traced {
		resets, nResets := e.tr.total("core.Reset")
		r.metrics["core.reset_ms_mean"] = ms(resets) / float64(nResets)
		r.metrics["core.glue_pct"] = gluePct(processTotal, prof.Total())
		for k, v := range nnMetrics(prof, r.attempted) {
			r.metrics[k] = v
		}
		if err := convStatics(e, "WRN-AM", adaptBatch, adaptBatch*r.attempted, prof, r); err != nil {
			return nil, err
		}
		r.note("nn.conv.bw_over_fw %.2f (the paper reports 2.2-2.5x)", r.metrics["nn.conv.bw_over_fw"])
	}
	return r, nil
}

// finiteShaped checks a logits tensor is [n, k] and holds no NaN or Inf.
func finiteShaped(t *tensor.Tensor, n, k int) bool {
	if t.NDim() != 2 || t.Dim(0) != n || t.Dim(1) != k {
		return false
	}
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// convStatics adds the tensor.* metrics: a static count over the model's
// conv layers after one forward (MACs per image, and the share served by
// the packed kernels), folded with the profiler's conv times over the
// images the window processed.
func convStatics(e *env, tag string, batch, images int, prof nn.PhaseTotals, r *result) error {
	m, err := e.man.Build(tag)
	if err != nil {
		return err
	}
	macs, packed := convMACs(m)
	r.metrics["tensor.packed_mac_pct"] = 100 * float64(packed) / float64(macs)
	r.metrics["tensor.conv_gmac_per_batch"] = float64(macs) * float64(batch) / 1e9
	r.metrics["tensor.conv.fw_gflops"], r.metrics["tensor.conv.bw_gflops"] = convRates(macs, images, prof)
	return nil
}

// convMACs runs one single-image forward and sums the conv layers' MACs,
// all and packed-path ones.
func convMACs(m *models.Model) (all, packed int64) {
	m.Forward(tensor.New(1, m.InC, m.InHW, m.InHW), false)
	nn.Walk(m.Net, func(l nn.Layer) {
		c, ok := l.(*nn.Conv2d)
		if !ok {
			return
		}
		all += c.Spec().MACs
		if tensor.PackedEnabled() && c.PackedEligible() {
			packed += c.Spec().MACs
		}
	})
	return all, packed
}
