package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"edgetta/internal/nn"
	"edgetta/internal/serve"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// dist is a sorted sample of latencies in milliseconds.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// pct returns the nearest-rank p-th percentile (0 < p <= 100) and how many
// samples lie beyond it.
func (d dist) pct(p float64) (v float64, beyond int) {
	if len(d) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	if rank < 1 {
		rank = 1
	}
	return d[rank-1], len(d) - rank
}

// val is pct without the sample count.
func (d dist) val(p float64) float64 {
	v, _ := d.pct(p)
	return v
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

// tailCandidates are the percentiles the tail rule chooses from.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// supportedTail is the highest candidate percentile with at least
// minBeyond samples beyond it, or 0 if the sample is too small for any.
func supportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			return p
		}
	}
	return 0
}

// tailNote renders the sample count behind a latency distribution and how
// many samples lie beyond each reported percentile, plus the percentile
// the tail rule supports at that count.
func tailNote(what string, d dist, ps ...float64) string {
	s := fmt.Sprintf("%s: n=%d", what, len(d))
	for _, p := range ps {
		_, beyond := d.pct(p)
		s += fmt.Sprintf("; p%g has %d beyond", p, beyond)
	}
	return s + fmt.Sprintf(" (the tail rule supports p%g)", supportedTail(len(d)))
}

// serveDelta is the change of one group's serve.Snapshot across the timed
// window. Counters are differences; the latency totals come from
// mean×count, which is exact while the histogram window (16K samples) is
// not exceeded. Percentiles cannot be differenced, so ServiceP50/P95 are
// read from the closing snapshot; its window holds the timed requests plus
// the few set-up requests before them.
type serveDelta struct {
	Batches, Requests, Images             int
	Shed, Canceled, Faults, NumericResets int
	CheckpointWrites, CheckpointFailures  int
	MaxQueueDepth                         int
	ServiceTotal, E2ETotal                time.Duration
	ServiceP50, ServiceP95                time.Duration
	Replicas                              int
}

func snapshotDelta(before, after serve.GroupSnapshot) serveDelta {
	total := func(l serve.LatencySnapshot) time.Duration { return l.Mean * time.Duration(l.Count) }
	return serveDelta{
		Batches:            after.Batches - before.Batches,
		Requests:           after.Requests - before.Requests,
		Images:             after.Images - before.Images,
		Shed:               after.Shed - before.Shed,
		Canceled:           after.Canceled - before.Canceled,
		Faults:             after.Faults - before.Faults,
		NumericResets:      after.NumericResets - before.NumericResets,
		CheckpointWrites:   after.CheckpointWrites - before.CheckpointWrites,
		CheckpointFailures: after.CheckpointFailures - before.CheckpointFailures,
		MaxQueueDepth:      after.MaxQueueDepth,
		ServiceTotal:       total(after.Service) - total(before.Service),
		E2ETotal:           total(after.E2E) - total(before.E2E),
		ServiceP50:         after.Service.P50,
		ServiceP95:         after.Service.P95,
		Replicas:           after.Replicas,
	}
}

// failures sums the counters that must stay 0 on a healthy run.
func (d serveDelta) failures() int {
	return d.Shed + d.Canceled + d.Faults + d.NumericResets + d.CheckpointFailures
}

// layerMetrics folds the delta into the serve.* per-layer metrics.
func (d serveDelta) layerMetrics(window time.Duration) map[string]float64 {
	m := map[string]float64{
		"serve.service_ms_p50":      ms(d.ServiceP50),
		"serve.service_ms_p95":      ms(d.ServiceP95),
		"serve.batches":             float64(d.Batches),
		"serve.requests":            float64(d.Requests),
		"serve.max_queue_depth":     float64(d.MaxQueueDepth),
		"serve.checkpoint_writes":   float64(d.CheckpointWrites),
		"serve.checkpoint_failures": float64(d.CheckpointFailures),
		"serve.faults":              float64(d.Faults),
		"serve.numeric_resets":      float64(d.NumericResets),
		"serve.shed":                float64(d.Shed),
		"serve.canceled":            float64(d.Canceled),
	}
	if d.Batches > 0 && d.Requests > 0 {
		m["serve.wait_ms_mean"] = ms(d.E2ETotal)/float64(d.Requests) - ms(d.ServiceTotal)/float64(d.Batches)
		m["serve.mean_coalesced"] = float64(d.Requests) / float64(d.Batches)
	}
	if window > 0 && d.Replicas > 0 {
		m["serve.busy_pct"] = 100 * d.ServiceTotal.Seconds() / (window.Seconds() * float64(d.Replicas))
	}
	return m
}

// nnMetrics folds the layer profiler's totals into per-batch times by
// kind. Linear, pool and uncategorised layers share the "other" bucket;
// pack is a contained part of conv time, reported on its own.
func nnMetrics(pt nn.PhaseTotals, batches int) map[string]float64 {
	if batches == 0 {
		batches = 1
	}
	per := func(s float64) float64 { return 1000 * s / float64(batches) }
	other := func(m map[nn.Kind]float64) float64 {
		return m[nn.KindOther] + m[nn.KindLinear] + m[nn.KindPool]
	}
	out := map[string]float64{
		"nn.conv.fw_ms":      per(pt.FwSeconds[nn.KindConv]),
		"nn.conv.bw_ms":      per(pt.BwSeconds[nn.KindConv]),
		"nn.pack.fw_ms":      per(pt.FwSeconds[nn.KindPack]),
		"nn.bn.fw_ms":        per(pt.FwSeconds[nn.KindBN]),
		"nn.bn.bw_ms":        per(pt.BwSeconds[nn.KindBN]),
		"nn.act.fw_ms":       per(pt.FwSeconds[nn.KindAct]),
		"nn.act.bw_ms":       per(pt.BwSeconds[nn.KindAct]),
		"nn.other.fw_ms":     per(other(pt.FwSeconds)),
		"nn.other.bw_ms":     per(other(pt.BwSeconds)),
		"nn.conv.fw_calls":   float64(pt.FwCalls[nn.KindConv]),
		"nn.conv.bw_calls":   float64(pt.BwCalls[nn.KindConv]),
		"nn.conv.bw_over_fw": 0,
	}
	if fw := pt.FwSeconds[nn.KindConv]; fw > 0 {
		out["nn.conv.bw_over_fw"] = pt.BwSeconds[nn.KindConv] / fw
	}
	return out
}

// gluePct is the share of adapter Process wall time spent outside the nn
// layers (entropy, gradient zeroing, the optimizer step, and for served
// workloads the replica's state swap): the Process total minus the
// profiler's layer total, over the Process total.
func gluePct(process time.Duration, nnSeconds float64) float64 {
	if process <= 0 {
		return 0
	}
	return 100 * (process.Seconds() - nnSeconds) / process.Seconds()
}

// convRates folds a static per-image MAC count and the profiler's conv
// times into achieved GFLOP/s: forward is 2·MACs, backward (dX and dW) 4·MACs.
func convRates(macsPerImage int64, images int, pt nn.PhaseTotals) (fw, bw float64) {
	flops := 2 * float64(macsPerImage) * float64(images)
	if s := pt.FwSeconds[nn.KindConv]; s > 0 {
		fw = flops / s / 1e9
	}
	if s := pt.BwSeconds[nn.KindConv]; s > 0 {
		bw = 2 * flops / s / 1e9
	}
	return fw, bw
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
