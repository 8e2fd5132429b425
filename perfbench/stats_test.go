package main

import (
	"math"
	"testing"
	"time"

	"edgetta/internal/nn"
	"edgetta/internal/serve"
	"edgetta/internal/tensor"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	d := newDist(seq(120))
	for _, tc := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 60, 60}, {90, 108, 12}, {95, 114, 6}, {99, 119, 1}, {100, 120, 0},
	} {
		v, beyond := d.pct(tc.p)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("p%g of 1..120 = %g with %d beyond, want %g with %d", tc.p, v, beyond, tc.v, tc.beyond)
		}
	}
	if v, b := newDist(nil).pct(50); v != 0 || b != 0 {
		t.Errorf("empty dist: %g, %d", v, b)
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestTailNotePrintsSampleCount(t *testing.T) {
	got := tailNote("latency", newDist(seq(120)), 90, 95)
	want := "latency: n=120; p90 has 12 beyond; p95 has 6 beyond (the tail rule supports p90)"
	if got != want {
		t.Errorf("tailNote = %q\nwant      %q", got, want)
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	// The third request found both connections busy and went out 15 ms late.
	res := []served{
		{start: at(0), end: at(5)},
		{start: at(10), end: at(18)},
		{start: at(35), end: at(40)},
		{start: at(40), end: at(44)},
	}
	rs := summarizeRung(30, t0, dues, res)
	if got, want := rs.lat.val(100), 20.0; got != want {
		t.Errorf("max latency from due = %g ms, want %g (waiting for a connection counts)", got, want)
	}
	if got, want := rs.late.val(100), 15.0; got != want {
		t.Errorf("max lateness = %g ms, want %g", got, want)
	}
	if got := rs.lateTail; len(got) != 2 || got.val(100) != 15 {
		t.Errorf("second-half lateness = %v, want the last two requests' [10 15]", got)
	}
	if rs.wall != 44*time.Millisecond {
		t.Errorf("wall = %v, want 44ms", rs.wall)
	}
	if !rs.meets(20) || rs.meets(19) {
		t.Errorf("meets: the rung's p95 from due is 20 ms")
	}
}

func TestMaxRateRejectsFailuresBacklogAndDrops(t *testing.T) {
	ok := rungStats{rate: 20, n: 10, lat: newDist([]float64{5, 6}), lateTail: newDist([]float64{0})}
	slow := rungStats{rate: 60, n: 10, lat: newDist([]float64{80}), lateTail: newDist([]float64{0})}
	failed := ok
	failed.rate, failed.fails = 35, 1
	backlog := ok
	backlog.rate, backlog.lateTail = 50, newDist([]float64{70})
	dropped := ok
	dropped.rate, dropped.dropped = 55, 1
	if got := maxRate([]rungStats{ok, failed, backlog, dropped, slow}, 50); got != 20 {
		t.Errorf("maxRate = %g, want 20", got)
	}
	if got := maxRate([]rungStats{slow}, 50); got != 0 {
		t.Errorf("maxRate with no rung meeting the limit = %g, want 0", got)
	}
}

func TestRunRungLatenessGrowsUnderBacklog(t *testing.T) {
	// Six requests all due at once over two connections, each taking 20 ms:
	// the third pair can only go out ~40 ms late.
	dues := make([]time.Duration, 6)
	t0, res := runRung(dues, func(c, i int, due time.Time) served {
		start := time.Now()
		time.Sleep(20 * time.Millisecond)
		return served{start: start, end: time.Now()}
	})
	rs := summarizeRung(1, t0, dues, res)
	if late := rs.late.val(100); late < 35 {
		t.Errorf("last lateness %.1f ms, want >= 35 with two connections", late)
	}
	if lat := rs.lat.val(100); lat < 55 {
		t.Errorf("last latency from due %.1f ms, want >= 55", lat)
	}
}

func TestSnapshotDeltaAcrossWindow(t *testing.T) {
	lat := func(n int, mean time.Duration) serve.LatencySnapshot {
		return serve.LatencySnapshot{Count: n, Mean: mean, P50: mean, P95: 2 * mean}
	}
	before := serve.GroupSnapshot{Batches: 2, Requests: 2, Images: 100, CheckpointWrites: 0,
		Service: lat(2, 40*time.Millisecond), E2E: lat(2, 50*time.Millisecond), Replicas: 1}
	after := serve.GroupSnapshot{Batches: 12, Requests: 12, Images: 600, CheckpointWrites: 3, MaxQueueDepth: 1,
		Service: lat(12, 45*time.Millisecond), E2E: lat(12, 80*time.Millisecond), Replicas: 1}
	d := snapshotDelta(before, after)
	if d.Batches != 10 || d.Requests != 10 || d.Images != 500 || d.CheckpointWrites != 3 {
		t.Errorf("counter deltas = %+v", d)
	}
	// 12×45 − 2×40 = 460 ms of service; 12×80 − 2×50 = 860 ms end to end.
	if d.ServiceTotal != 460*time.Millisecond || d.E2ETotal != 860*time.Millisecond {
		t.Errorf("totals = %v service, %v e2e", d.ServiceTotal, d.E2ETotal)
	}
	m := d.layerMetrics(time.Second)
	if got := m["serve.wait_ms_mean"]; math.Abs(got-40) > 1e-9 {
		t.Errorf("wait_ms_mean = %g, want 86 − 46 = 40", got)
	}
	if got := m["serve.busy_pct"]; math.Abs(got-46) > 1e-9 {
		t.Errorf("busy_pct = %g, want 46", got)
	}
	if got := m["serve.service_ms_p95"]; got != 90 {
		t.Errorf("service_ms_p95 = %g, want the closing snapshot's 90", got)
	}
	if d.failures() != 0 {
		t.Errorf("failures = %d", d.failures())
	}
	after.Shed, after.CheckpointFailures = 1, 2
	if f := snapshotDelta(before, after).failures(); f != 3 {
		t.Errorf("failures = %d, want 3", f)
	}
}

func TestTracedRunFolding(t *testing.T) {
	tr := &tracer{}
	t0 := time.Unix(0, 0)
	for i := 0; i < 4; i++ {
		start := t0.Add(time.Duration(i) * time.Second)
		tr.add("core.Process", 0, int64(i+1), start, start.Add(250*time.Millisecond))
	}
	tr.add("core.Reset", 0, 0, t0, t0.Add(time.Millisecond))
	process, n := tr.total("core.Process")
	if process != time.Second || n != 4 {
		t.Fatalf("Process spans total %v over %d", process, n)
	}
	prof := nn.PhaseTotals{
		FwSeconds: map[nn.Kind]float64{nn.KindConv: 0.2, nn.KindBN: 0.1, nn.KindPack: 0.05, nn.KindLinear: 0.01, nn.KindPool: 0.01},
		BwSeconds: map[nn.Kind]float64{nn.KindConv: 0.5, nn.KindBN: 0.05},
		FwCalls:   map[nn.Kind]int{nn.KindConv: 40},
		BwCalls:   map[nn.Kind]int{nn.KindConv: 40},
	}
	// Layers cover 0.87 s of the 1 s in Process (pack is inside conv).
	if got := gluePct(process, prof.Total()); math.Abs(got-13) > 1e-9 {
		t.Errorf("glue = %g%%, want 13%%", got)
	}
	m := nnMetrics(prof, 4)
	if math.Abs(m["nn.conv.bw_ms"]-125) > 1e-9 || math.Abs(m["nn.other.fw_ms"]-5) > 1e-9 {
		t.Errorf("per-batch times: conv.bw %g, other.fw %g", m["nn.conv.bw_ms"], m["nn.other.fw_ms"])
	}
	if math.Abs(m["nn.conv.bw_over_fw"]-2.5) > 1e-9 {
		t.Errorf("bw_over_fw = %g, want 2.5", m["nn.conv.bw_over_fw"])
	}
	// 1 MMAC/image × 100 images: 0.2 GFLOP fw over 0.2 s, 0.4 GFLOP bw over 0.5 s.
	fw, bw := convRates(1e6, 100, prof)
	if math.Abs(fw-1) > 1e-9 || math.Abs(bw-0.8) > 1e-9 {
		t.Errorf("conv rates fw %g bw %g GFLOP/s", fw, bw)
	}

	// Server-side handler spans attach under the client span of their request.
	tr.adopt([]span{{Name: "httpapi.ServeHTTP", Req: 3}, {Name: "httpapi.ServeHTTP", Req: 99}}, "core.Process")
	last := tr.spans[len(tr.spans)-2:]
	if last[0].Parent != 3 || last[1].Parent != 0 {
		t.Errorf("adopted parents = %d, %d; want 3 (the span of req 3) and 0", last[0].Parent, last[1].Parent)
	}
}

func TestDamageFailsBothChecks(t *testing.T) {
	logits := []float32{0.5, -1}
	orig := append([]float32(nil), logits...)
	tt := tensor.FromSlice(logits, 1, 2)
	if !finiteShaped(tt, 1, 2) || finiteShaped(tt, 2, 1) {
		t.Fatal("finiteShaped misjudges intact logits")
	}
	damage(tt)
	if sameBits(tt.Data, orig) || finiteShaped(tt, 1, 2) {
		t.Errorf("damaged logits %v still pass the checks", tt.Data)
	}
}
