package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/serve/httpapi"
	"edgetta/internal/tensor"
)

const (
	openBatch = 8
	// openPool distinct batches are cycled through by the arrivals; No-Adapt
	// is stateless and the server caches nothing, so reuse changes no work,
	// and it bounds the reference to openPool forward passes.
	openPool = 240
)

// maxLate bounds the backlog of a rung the server cannot keep up with:
// a request the generator would send later than this is dropped instead,
// which keeps a run's length bounded and marks the rung as not met.
const maxLate = 5 * time.Second

var (
	errMismatch = errors.New("logits differ from the serial reference")
	errDropped  = errors.New("dropped by the generator: too late to send")
)

// runOpen drives stateless No-Adapt streams on RXT-AM with seeded Poisson
// arrivals on the manifest's ladder of absolute rates, over two
// connections. Arrivals never wait for replies; a request that finds both
// connections busy waits for one, and its latency runs from its due time.
func runOpen(e *env) (*result, error) {
	r := &result{metrics: map[string]float64{}, bypassed: []string{"core.reset_ms_mean"}}
	ol := e.man.OpenLoop
	gen := data.NewGenerator(e.man.DatasetSeed)
	digest := sha256.New()
	var pool stream
	rng := rand.New(rand.NewSource(subSeed(e.seed, 0)))
	for j := 0; j < openPool; j++ {
		x, labels := gen.CorruptedBatch(rng, openBatch, data.AllCorruptions[j%data.NumCorruptions], severity)
		hashTensor(digest, x)
		pool.xs = append(pool.xs, x)
		pool.labels = append(pool.labels, labels)
	}
	r.inputDigest = fmt.Sprintf("%x", digest.Sum(nil))
	warm, _ := gen.CorruptedBatch(rand.New(rand.NewSource(subSeed(e.seed, -1))), openBatch, data.GaussianNoise, severity)

	h := &harness{e: e}
	defer h.close()
	var streams []*httpapi.ClientStream
	for rep := 0; rep < setupReps; rep++ {
		h.close()
		t0, c0, err := clocks()
		if err != nil {
			return nil, err
		}
		if err := h.start("-model", "RXT-AM", "-algo", "noadapt"); err != nil {
			return nil, err
		}
		streams = streams[:0]
		for _, c := range h.conns {
			st, err := c.Open("RXT-AM", "noadapt")
			if err != nil {
				return nil, err
			}
			if _, err := st.Process(warm); err != nil {
				return nil, err
			}
			streams = append(streams, st)
		}
		if err := h.setupDone(t0, c0); err != nil {
			return nil, err
		}
	}

	if err := h.open(); err != nil {
		return nil, err
	}
	rungDur := e.seconds / time.Duration(len(ol.RatesReqS))
	type rungRun struct {
		t0   time.Time
		dues []time.Duration
		res  []served
	}
	runs := make([]rungRun, len(ol.RatesReqS))
	cursor := 0
	for k, rate := range ol.RatesReqS {
		dues := poissonSchedule(rand.New(rand.NewSource(subSeed(e.seed, 200+k))), rate, rungDur)
		first := cursor
		cursor += len(dues)
		t0, res := runRung(dues, func(c, i int, due time.Time) served {
			req := int64(k+1)<<32 | int64(i+1)
			idx := (first + i) % openPool
			h.conns[c].rt.req.Store(req)
			t0 := time.Now()
			out, err := streams[c].Process(pool.xs[idx])
			t1 := time.Now()
			e.tr.add("loadgen.wait", 0, req, due, t0)
			e.tr.add("client.Process", 0, req, t0, t1)
			return served{req: req, idx: idx, start: t0, end: t1, out: out, err: err}
		})
		runs[k] = rungRun{t0: t0, dues: dues, res: res}
	}
	if err := h.closeWindow(); err != nil {
		return nil, err
	}
	for _, st := range streams {
		if _, err := st.Close(); err != nil {
			return nil, err
		}
	}

	// Reference: a serial in-process No-Adapt adapter on a clone of the
	// same weights; coalescing must not change a single bit.
	refModel, err := e.man.LoadModel(e.dir, "RXT-AM")
	if err != nil {
		return nil, err
	}
	a, err := core.New(core.NoAdapt, refModel.Clone(), core.Config{})
	if err != nil {
		return nil, err
	}
	ref := make([]*tensor.Tensor, openPool)
	wrong := 0
	for k, x := range pool.xs {
		ref[k] = a.Process(x)
		for j, p := range ref[k].ArgmaxRows() {
			if p != pool.labels[k][j] {
				wrong++
			}
		}
	}

	var rungs []rungStats
	var calls []served
	images := 0
	var wall time.Duration
	for k, run := range runs {
		for i := range run.res {
			sv := &run.res[i]
			if sv.err == errDropped {
				continue
			}
			if e.corruptOne && k == 0 && i == 0 && sv.out != nil {
				damage(sv.out)
			}
			r.attempted++
			if sv.err == nil && !sameBits(sv.out.Data, ref[sv.idx].Data) {
				sv.err = errMismatch
			}
			calls = append(calls, *sv)
			if sv.err != nil {
				r.failed++
				continue
			}
			images += openBatch
		}
		rs := summarizeRung(ol.RatesReqS[k], run.t0, run.dues, run.res)
		rungs = append(rungs, rs)
		wall += rs.wall
	}
	r.failed += h.delta.failures()

	mid, high := rungs[ol.Mid], rungs[ol.High]
	h.common(r)
	r.metrics["img_per_s"] = float64(images) / wall.Seconds()
	r.metrics["lat_ms_p50"] = mid.lat.val(50)
	r.metrics["lat_ms_p90"] = mid.lat.val(90)
	r.metrics["lat_ms_p95"] = mid.lat.val(95)
	r.metrics["lat_ms_p50.high"] = high.lat.val(50)
	r.metrics["lat_ms_p95.high"] = high.lat.val(95)
	r.metrics["max_rate_req_s"] = maxRate(rungs, ol.LatencyLimitMS)
	r.metrics["loadgen.late_ms_p95"] = mid.late.val(95)
	r.metrics["error_pct"] = 100 * float64(wrong) / float64(openPool*openBatch)
	for k, rs := range rungs {
		tag := ""
		switch k {
		case ol.Mid:
			tag = " (mid)"
		case ol.High:
			tag = " (high)"
		}
		r.note("rung %3.0f req/s%-7s fails=%d dropped=%d  from-due p50 %7.2f p90 %7.2f p95 %7.2f ms  late p95 %6.2f ms, 2nd half %6.2f ms  meets %g ms: %v",
			rs.rate, tag, rs.fails, rs.dropped, rs.lat.val(50), rs.lat.val(90), rs.lat.val(95),
			rs.late.val(95), rs.lateTail.val(95), ol.LatencyLimitMS, rs.meets(ol.LatencyLimitMS))
		r.notes = append(r.notes, "  "+tailNote("latency from due", rs.lat, 90, 95))
	}
	r.note("window %.2fs; error over the %d-image pool", h.window.Seconds(), openPool*openBatch)
	if e.traced {
		if err := h.layerMetrics(r, calls, "client.Process", "RXT-AM", openBatch); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// poissonSchedule draws arrival offsets of a Poisson process at rate
// req/s over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return dues
		}
		dues = append(dues, due)
	}
}

// runRung sends request i at t0+dues[i] over loadConns senders, in due
// order: a sender takes the next request, sleeps until it is due (not at
// all if it is already late) and sends it. It returns once every request
// has been answered.
func runRung(dues []time.Duration, send func(conn, i int, due time.Time) served) (time.Time, []served) {
	t0 := time.Now().Add(2 * time.Millisecond)
	out := make([]served, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				due := t0.Add(dues[i])
				d := time.Until(due)
				if d < -maxLate {
					out[i] = served{err: errDropped}
					continue
				}
				time.Sleep(d)
				out[i] = send(c, i, due)
			}
		}(c)
	}
	wg.Wait()
	return t0, out
}

// rungStats summarizes one rung. Latency runs from the due time, so time a
// request spent waiting for a free connection counts; lateness is send
// time minus due time. lateTail is lateness over the rung's second half,
// where a generator that cannot keep up shows a growing backlog.
type rungStats struct {
	rate              float64
	n, fails, dropped int
	lat, late         dist
	lateTail          dist
	wall              time.Duration
}

func summarizeRung(rate float64, t0 time.Time, dues []time.Duration, res []served) rungStats {
	rs := rungStats{rate: rate, n: len(res)}
	var lat, late, tail []float64
	var last time.Time
	for i, sv := range res {
		due := t0.Add(dues[i])
		if sv.end.After(last) {
			last = sv.end
		}
		if sv.err == errDropped {
			rs.dropped++
			continue
		}
		l := ms(sv.start.Sub(due))
		late = append(late, l)
		if 2*i >= len(res) {
			tail = append(tail, l)
		}
		if sv.err != nil {
			rs.fails++
			continue
		}
		lat = append(lat, ms(sv.end.Sub(due)))
	}
	rs.lat, rs.late, rs.lateTail = newDist(lat), newDist(late), newDist(tail)
	rs.wall = last.Sub(t0)
	return rs
}

// meets reports whether the rung held the latency limit at p95 from due
// time, with no failure and no backlog growing past the limit.
func (rs rungStats) meets(limitMS float64) bool {
	return rs.n > 0 && rs.fails == 0 && rs.dropped == 0 &&
		rs.lat.val(95) <= limitMS && rs.lateTail.val(95) <= limitMS
}

// maxRate is the highest rate of a rung that meets the limit, 0 if none.
func maxRate(rungs []rungStats, limitMS float64) float64 {
	best := 0.0
	for _, rs := range rungs {
		if rs.meets(limitMS) {
			best = math.Max(best, rs.rate)
		}
	}
	return best
}
