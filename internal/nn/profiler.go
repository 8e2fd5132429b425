package nn

import (
	"sort"
	"sync"
	"time"

	"edgetta/internal/parallel"
	"edgetta/internal/telemetry"
)

// This file implements the layer timing hooks the study's methodology is
// built on (the paper uses PyTorch's Autograd profiler the same way).
// There is one timing pipeline: the telemetry span tracer. While a tracer
// is active (telemetry.StartTracing / EDGETTA_TRACE=1, or a profiling
// window), every layer Forward/Backward becomes a Chrome trace-event span
// named "<kind>.fw"/"<kind>.bw" with the layer name attached, and the
// packed conv path's layout-conversion time appears as contained "pack"
// spans annotated with the pool width. With no tracer the hooks cost one
// atomic load per layer call. The clock is read only in this file (exempt
// from ttalint's determinism scope by the *profiler* filename carve-out)
// and in internal/telemetry.
//
// The per-kind PhaseTotals the profiler reports are not collected here:
// the tracer folds every complete span into a per-(category, name) total,
// and a profiling window (StartProfiling/StopProfiling) is the difference
// of that fold's "nn" entries between the window's two ends.
//
// Attribution with the pooled scheduler: layers execute their parallel
// loops fork-join through internal/parallel, and the join happens before
// profEnd, so the wall time recorded for a layer spans all pooled-worker
// activity that layer caused and nothing else. Nested loops (a matmul
// inside a per-image conv loop) run inline on the pool's workers and are
// likewise contained in the issuing layer's interval.

// PhaseTotals aggregates profiled wall time by layer kind and direction.
type PhaseTotals struct {
	FwSeconds map[Kind]float64
	BwSeconds map[Kind]float64
	FwCalls   map[Kind]int
	BwCalls   map[Kind]int
}

// Total returns the summed forward+backward seconds. KindPack is
// excluded: it is a contained sub-measurement of conv time (see
// KindPack), so adding it would double-count. The sum runs in ascending
// kind order: float32/64 addition is not associative, so summing in map
// iteration order would make the total vary run to run over identical
// measurements.
func (p PhaseTotals) Total() float64 {
	t := 0.0
	for _, k := range sortedKinds(p.FwSeconds) {
		if k != KindPack {
			t += p.FwSeconds[k]
		}
	}
	for _, k := range sortedKinds(p.BwSeconds) {
		if k != KindPack {
			t += p.BwSeconds[k]
		}
	}
	return t
}

// sortedKinds returns m's keys in ascending order, the determinism-safe
// way to iterate a kind-keyed map.
func sortedKinds(m map[Kind]float64) []Kind {
	kinds := make([]Kind, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// profWindow is an open profiling window: the tracer it reads, that
// tracer's span fold when the window opened, and whether the window
// installed the tracer itself.
type profWindow struct {
	tr    *telemetry.Tracer
	base  map[telemetry.SpanKey]telemetry.SpanTotal
	owned bool
}

var (
	windowMu sync.Mutex
	window   *profWindow
)

// StartProfiling opens a process-wide window over the layer timings. It
// reads the active tracer, installing one that buffers no events if none
// is active, so it works alongside EDGETTA_TRACE=1 or a running trace.
// It returns false if a window is already open.
func StartProfiling() bool {
	windowMu.Lock()
	defer windowMu.Unlock()
	if window != nil {
		return false
	}
	w := &profWindow{}
	for w.tr == nil {
		if w.tr = telemetry.ActiveTracer(); w.tr == nil {
			w.tr = telemetry.StartTracingLimit(1)
			w.owned = w.tr != nil
		}
	}
	w.base = w.tr.Totals()
	window = w
	return true
}

// StopProfiling closes the window and returns the layer time recorded in
// it, by kind and direction. It uninstalls the tracer only if
// StartProfiling installed it. Calling it with no open window returns
// empty totals.
func StopProfiling() PhaseTotals {
	windowMu.Lock()
	defer windowMu.Unlock()
	w := window
	if w == nil {
		return PhaseTotals{}
	}
	window = nil
	if w.owned && telemetry.ActiveTracer() == w.tr {
		telemetry.StopTracing()
	}
	end := w.tr.Totals()
	p := PhaseTotals{
		FwSeconds: map[Kind]float64{}, BwSeconds: map[Kind]float64{},
		FwCalls: map[Kind]int{}, BwCalls: map[Kind]int{},
	}
	for k := KindOther; k <= KindPack; k++ {
		for _, backward := range []bool{false, true} {
			key := telemetry.SpanKey{Cat: "nn", Name: spanName(k, backward)}
			calls := int(end[key].Calls - w.base[key].Calls)
			if calls == 0 {
				continue
			}
			sec := time.Duration(end[key].Ns - w.base[key].Ns).Seconds()
			if backward {
				p.BwSeconds[k], p.BwCalls[k] = sec, calls
			} else {
				p.FwSeconds[k], p.FwCalls[k] = sec, calls
			}
		}
	}
	return p
}

// profStart returns the start time when a tracer is active, else the zero
// time. Layers call it at the top of Forward/Backward.
func profStart() time.Time {
	if !profActive() {
		return time.Time{}
	}
	return time.Now()
}

// profActive reports whether a tracer is listening: one atomic load.
// Layers use it to skip fine-grained sub-measurements (pack vs compute
// attribution) when nobody is.
func profActive() bool { return telemetry.ActiveTracer() != nil }

// spanName renders a kind and direction as a trace span name.
func spanName(kind Kind, backward bool) string {
	if backward {
		return kind.String() + ".bw"
	}
	return kind.String() + ".fw"
}

// profAdd records d against a kind directly, without a surrounding
// interval, as a span ending now annotated with the pool width. The conv
// layer uses it to attribute layout pack/unpack time (KindPack)
// separately from kernel compute; d is summed across pool workers, so
// the split is exact at one worker and CPU-time-like above.
func profAdd(kind Kind, backward bool, d time.Duration) {
	if d == 0 {
		return
	}
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Complete("nn", spanName(kind, backward), 0, time.Now().Add(-d), d,
			telemetry.Arg{Key: "workers", Value: parallel.Workers()})
	}
}

// profEnd records a completed layer phase as a trace span carrying the
// layer's name.
func profEnd(kind Kind, name string, backward bool, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Complete("nn", spanName(kind, backward), 0, t0, time.Since(t0),
			telemetry.Arg{Key: "layer", Value: name})
	}
}
