package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/serve/httpapi"
	"edgetta/internal/tensor"
)

const (
	sessionCount = 2
	// sessionBatches is one session's stream: two batches per corruption
	// family. Sessions replay their stream until the window ends, so the
	// inputs, and the reference, stay this size however fast the server is.
	sessionBatches = 30
	ckptEvery      = 4
)

// stream is a fixed sequence of input batches with their held labels.
type stream struct {
	xs     []*tensor.Tensor
	labels [][]int
}

// served is one answered request.
type served struct {
	req   int64
	idx   int // position in the stream
	start time.Time
	end   time.Time
	out   *tensor.Tensor
	err   error
}

// runSessions drives two named stateful BN-Norm sessions over the wire in a
// closed loop. Each replays its own corruption stream; the server
// checkpoints every 4 applied batches to a spill directory.
func runSessions(e *env) (*result, error) {
	r := &result{metrics: map[string]float64{},
		bypassed: []string{"loadgen.", "core.reset_ms_mean", "lat_ms_p50.high", "lat_ms_p95.high", "max_rate_req_s"}}
	gen := data.NewGenerator(e.man.DatasetSeed)
	digest := sha256.New()
	streams := make([]stream, sessionCount)
	for s := range streams {
		rng := rand.New(rand.NewSource(subSeed(e.seed, s)))
		for b := 0; b < sessionBatches; b++ {
			family := data.AllCorruptions[(b/2+7*s)%data.NumCorruptions]
			x, labels := gen.CorruptedBatch(rng, adaptBatch, family, severity)
			hashTensor(digest, x)
			streams[s].xs = append(streams[s].xs, x)
			streams[s].labels = append(streams[s].labels, labels)
		}
	}
	r.inputDigest = fmt.Sprintf("%x", digest.Sum(nil))
	warm, _ := gen.CorruptedBatch(rand.New(rand.NewSource(subSeed(e.seed, -1))), adaptBatch, data.GaussianNoise, severity)

	ckptRoot, err := os.MkdirTemp(e.work, "ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptRoot)
	h := &harness{e: e}
	defer h.close()
	var sessions []*httpapi.ClientStream
	for rep := 0; rep < setupReps; rep++ {
		h.close()
		t0, c0, err := clocks()
		if err != nil {
			return nil, err
		}
		err = h.start("-model", "WRN-AM", "-algo", "bnnorm", "-checkpoint-every", fmt.Sprint(ckptEvery),
			"-checkpoint-dir", filepath.Join(ckptRoot, fmt.Sprint(rep)))
		if err != nil {
			return nil, err
		}
		sessions = sessions[:0]
		for s, c := range h.conns {
			// A throwaway session warms the connection and packs weights.
			w, _, err := c.OpenSession("WRN-AM", "bnnorm", fmt.Sprintf("warmup-%d", s))
			if err != nil {
				return nil, err
			}
			if _, err := w.ProcessSeq(warm, 1); err != nil {
				return nil, err
			}
			if _, err := w.Close(); err != nil {
				return nil, err
			}
			st, resumed, err := c.OpenSession("WRN-AM", "bnnorm", fmt.Sprintf("session-%d", s))
			if err != nil {
				return nil, err
			}
			if resumed != 0 {
				return nil, fmt.Errorf("session-%d resumed at %d in a fresh server", s, resumed)
			}
			sessions = append(sessions, st)
		}
		if err := h.setupDone(t0, c0); err != nil {
			return nil, err
		}
	}

	if err := h.open(); err != nil {
		return nil, err
	}
	results := make([][]served, sessionCount)
	var wg sync.WaitGroup
	deadline := h.start0.Add(e.seconds)
	for s := range sessions {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < sessionBatches || time.Now().Before(deadline); i++ {
				req := int64(s+1)<<32 | int64(i+1)
				h.conns[s].rt.req.Store(req)
				t0 := time.Now()
				out, err := sessions[s].ProcessSeq(streams[s].xs[i%sessionBatches], uint64(i+1))
				t1 := time.Now()
				e.tr.add("client.ProcessSeq", 0, req, t0, t1)
				results[s] = append(results[s], served{req: req, idx: i % sessionBatches, start: t0, end: t1, out: out, err: err})
			}
		}(s)
	}
	wg.Wait()
	if err := h.closeWindow(); err != nil {
		return nil, err
	}
	for _, st := range sessions {
		if _, err := st.Close(); err != nil {
			return nil, err
		}
	}

	// Reference: a serial in-process adapter per session on a clone of the
	// same weights, fed the session's batches in order. BN-Norm's logits
	// depend only on the batch (it normalizes with batch statistics), so
	// the first cycle's reference covers every later replay of it.
	refModel, err := e.man.LoadModel(e.dir, "WRN-AM")
	if err != nil {
		return nil, err
	}
	var lat []float64
	var all []served
	wrong, seen := 0, 0
	for s, rs := range results {
		a, err := core.New(core.BNNorm, refModel.Clone(), core.Config{})
		if err != nil {
			return nil, err
		}
		ref := make([]*tensor.Tensor, sessionBatches)
		for i, x := range streams[s].xs {
			ref[i] = a.Process(x)
		}
		for i, sv := range rs {
			if e.corruptOne && s == 0 && i == 0 && sv.out != nil {
				damage(sv.out)
			}
			r.attempted++
			if sv.err != nil || !sameBits(sv.out.Data, ref[sv.idx].Data) {
				r.failed++
				continue
			}
			lat = append(lat, ms(sv.end.Sub(sv.start)))
			if i < sessionBatches {
				for j, p := range sv.out.ArgmaxRows() {
					if p != streams[s].labels[sv.idx][j] {
						wrong++
					}
				}
				seen += adaptBatch
			}
		}
		all = append(all, rs...)
	}
	r.failed += h.delta.failures()

	d := newDist(lat)
	h.common(r)
	r.metrics["img_per_s"] = float64(adaptBatch*len(lat)) / h.window.Seconds()
	r.metrics["lat_ms_p50"] = d.val(50)
	r.metrics["lat_ms_p90"] = d.val(90)
	r.metrics["lat_ms_p95"] = d.val(95)
	r.metrics["error_pct"] = 100 * float64(wrong) / float64(max(seen, 1))
	r.notes = append(r.notes, tailNote("client ProcessSeq latency", d, 90, 95))
	r.note("window %.2fs; error over each session's first %d batches (%d images)", h.window.Seconds(), sessionBatches, seen)
	if e.traced {
		if err := h.layerMetrics(r, all, "client.ProcessSeq", "WRN-AM", adaptBatch); err != nil {
			return nil, err
		}
	}
	return r, nil
}
