package nn

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"edgetta/internal/telemetry"
)

// withoutTracer uninstalls any tracer EDGETTA_TRACE=1 installed at
// process start and reinstalls one when the test ends.
func withoutTracer(tb testing.TB) {
	tb.Helper()
	prior := telemetry.StopTracing()
	tb.Cleanup(func() {
		telemetry.StopTracing()
		if prior != nil {
			telemetry.StartTracing()
		}
	})
}

// TestProfilingWindowOwnTracer: with no tracer running, a window installs
// its own and removes it on close.
func TestProfilingWindowOwnTracer(t *testing.T) {
	withoutTracer(t)
	if !StartProfiling() {
		t.Fatal("StartProfiling failed with no window open")
	}
	if telemetry.ActiveTracer() == nil {
		t.Fatal("window installed no tracer")
	}
	net := buildParityNet(7)
	net.Forward(parityInput(11), true)
	p := StopProfiling()
	if telemetry.ActiveTracer() != nil {
		t.Fatal("window left its tracer installed")
	}
	if p.FwCalls[KindConv] != 2 || p.FwSeconds[KindConv] <= 0 {
		t.Fatalf("conv fw: %d calls, %vs; want 2 calls and positive time", p.FwCalls[KindConv], p.FwSeconds[KindConv])
	}
}

// TestProfilingWindowUnderTracer: a window opened while a trace is being
// collected reports only the spans recorded inside it, to the nanosecond
// of the same tracer's exported trace, and leaves the trace running.
func TestProfilingWindowUnderTracer(t *testing.T) {
	withoutTracer(t)
	tr := telemetry.StartTracing()
	net := buildParityNet(7)
	x := parityInput(11)
	net.Backward(net.Forward(x, true)) // outside the window
	before := tr.Len()

	if !StartProfiling() {
		t.Fatal("StartProfiling failed under an active tracer")
	}
	net.Backward(net.Forward(x, true))
	p := StopProfiling()
	if telemetry.ActiveTracer() != tr {
		t.Fatal("closing the window uninstalled a tracer it did not install")
	}
	for _, k := range []Kind{KindConv, KindBN, KindAct} {
		if p.FwCalls[k] != 2 || p.BwCalls[k] != 2 {
			t.Errorf("%v: fw %d bw %d calls, want 2 and 2", k, p.FwCalls[k], p.BwCalls[k])
		}
	}

	// Differential: sum the window's "nn" spans from the exported trace.
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string  `json:"cat"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	ns, calls := map[string]int64{}, map[string]int{}
	for _, e := range doc.TraceEvents[1+before:] { // [0] is process_name
		if e.Cat == "nn" {
			ns[e.Name] += int64(math.Round(e.Dur * 1e3))
			calls[e.Name]++
		}
	}
	for k := KindOther; k <= KindPack; k++ {
		fw, bw := spanName(k, false), spanName(k, true)
		if got, want := p.FwSeconds[k], time.Duration(ns[fw]).Seconds(); got != want || p.FwCalls[k] != calls[fw] {
			t.Errorf("%s: window %vs/%d calls, trace %vs/%d calls", fw, got, p.FwCalls[k], want, calls[fw])
		}
		if got, want := p.BwSeconds[k], time.Duration(ns[bw]).Seconds(); got != want || p.BwCalls[k] != calls[bw] {
			t.Errorf("%s: window %vs/%d calls, trace %vs/%d calls", bw, got, p.BwCalls[k], want, calls[bw])
		}
	}
}

// BenchmarkProfHooksDisabled pins the cost of a layer's timing hooks with
// no tracer installed: one atomic load, no lock, no allocation.
func BenchmarkProfHooksDisabled(b *testing.B) {
	withoutTracer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profEnd(KindConv, "conv", false, profStart())
	}
}
