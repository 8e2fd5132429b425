package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// TestServeRegistryMetrics drives a group with a registry attached and
// checks the published counters and gauges against the served traffic.
func TestServeRegistryMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Registry: reg})
	defer srv.Close()
	m := testModel()
	key, err := srv.AddGroup(m, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.OpenStream(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.ProcessCtx(context.Background(), tensor.New(2, m.InC, m.InHW, m.InHW)); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	label := `{group="` + key.String() + `"}`
	for _, want := range []string{
		"edgetta_serve_requests_total" + label + " 3",
		"edgetta_serve_images_total" + label + " 6",
		"edgetta_serve_open_streams" + label + " 1",
		"edgetta_serve_queue_depth" + label + " 0",
		"edgetta_serve_service_seconds_count" + label + " 3",
		"edgetta_serve_e2e_seconds_count" + label + " 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}

	st.Close()
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "edgetta_serve_open_streams"+label+" 0\n") {
		t.Error("open_streams gauge not decremented on Close")
	}

	// Every count a GroupSnapshot reports must equal its exported metric
	// on traffic that moves each of them, and a server without a Registry
	// must count the same traffic the same way.
	for _, tc := range []struct {
		name  string
		drive func(t *testing.T, reg *telemetry.Registry) GroupSnapshot
	}{
		{"shed-cancel", driveShedCancel},
		{"faults", driveFaults},
	} {
		reg := telemetry.NewRegistry()
		exported := tc.drive(t, reg)
		b.Reset()
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		label := `{group="` + exported.Key.String() + `"}`
		for _, c := range snapshotCounts {
			want := fmt.Sprintf("%s%s %d\n", c.metric, label, c.value(exported))
			if !strings.Contains(b.String(), want) {
				t.Errorf("%s: snapshot has %s, metrics do not\n%s", tc.name, strings.TrimSpace(want), b.String())
			}
		}
		private := tc.drive(t, nil)
		for _, c := range snapshotCounts {
			if got, want := c.value(private), c.value(exported); got != want {
				t.Errorf("%s: without a Registry %s = %d, want %d", tc.name, c.metric, got, want)
			}
		}
	}
}

// snapshotCounts pairs each GroupSnapshot count with the metric that
// exports it.
var snapshotCounts = []struct {
	metric string
	value  func(GroupSnapshot) int
}{
	{"edgetta_serve_requests_total", func(s GroupSnapshot) int { return s.Requests }},
	{"edgetta_serve_images_total", func(s GroupSnapshot) int { return s.Images }},
	{"edgetta_serve_batches_total", func(s GroupSnapshot) int { return s.Batches }},
	{"edgetta_serve_coalesced_requests_total", func(s GroupSnapshot) int { return s.Coalesced }},
	{"edgetta_serve_shed_total", func(s GroupSnapshot) int { return s.Shed }},
	{"edgetta_serve_canceled_total", func(s GroupSnapshot) int { return s.Canceled }},
	{"edgetta_serve_replica_faults_total", func(s GroupSnapshot) int { return s.Faults }},
	{"edgetta_serve_respawns_total", func(s GroupSnapshot) int { return s.Respawns }},
	{"edgetta_serve_respawning", func(s GroupSnapshot) int { return s.Respawning }},
	{"edgetta_serve_numeric_resets_total", func(s GroupSnapshot) int { return s.NumericResets }},
	{"edgetta_serve_checkpoint_failures_total", func(s GroupSnapshot) int { return s.CheckpointFailures }},
	{"edgetta_serve_queue_depth", func(s GroupSnapshot) int { return s.QueueDepth }},
	{"edgetta_serve_pending_images", func(s GroupSnapshot) int { return s.PendingImages }},
	{"edgetta_serve_replicas", func(s GroupSnapshot) int { return s.Replicas }},
	{"edgetta_serve_open_streams", func(s GroupSnapshot) int { return len(s.Streams) }},
}

// driveShedCancel serves one request on a gated single-replica No-Adapt
// group under AdmitShed with QueueCap 1, while a second request waits in
// the queue and is canceled there and a third is shed at admission. The
// server stays open until the test ends, so its gauges still read live.
func driveShedCancel(t *testing.T, reg *telemetry.Registry) GroupSnapshot {
	t.Helper()
	inj := &gateInjector{entered: make(chan struct{}), release: make(chan Fault)}
	srv := New(Config{Registry: reg, Admission: AdmitShed, QueueCap: 1, Injector: inj})
	t.Cleanup(srv.Close)
	m := testModel()
	key, err := srv.AddGroup(m, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.OpenStream(key)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, m.InC, m.InHW, m.InHW)
	served := st.SubmitCtx(context.Background(), x)
	<-inj.entered // the only replica is now busy
	ctx, cancel := context.WithCancel(context.Background())
	queued := st.SubmitCtx(ctx, x)
	if r := <-st.SubmitCtx(context.Background(), x); !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("third request on a full queue: err = %v, want ErrOverloaded", r.Err)
	}
	cancel()
	var se *Error
	if r := <-queued; !errors.As(r.Err, &se) || se.Code != CodeCanceled {
		t.Fatalf("queued request: err = %v, want CodeCanceled", r.Err)
	}
	inj.release <- Fault{}
	if r := <-served; r.Err != nil {
		t.Fatalf("gated request: %v", r.Err)
	}
	s, err := srv.GroupSnapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if s.Requests != 1 || s.Shed != 1 || s.Canceled != 1 {
		t.Fatalf("requests/shed/canceled = %d/%d/%d, want 1/1/1", s.Requests, s.Shed, s.Canceled)
	}
	return s
}

// driveFaults serves one BN-Norm session on a single replica through a
// replica panic and its respawn, a failed checkpoint write and a poisoned
// state the numeric guard resets. The server stays open until the test
// ends.
func driveFaults(t *testing.T, reg *telemetry.Registry) GroupSnapshot {
	t.Helper()
	inj := &scriptInjector{
		faults:    map[uint64]Fault{1: {Kind: FaultPanic}, 3: {Kind: FaultPoison}},
		ckptFails: map[uint64]bool{1: true},
	}
	srv := New(Config{Registry: reg, Injector: inj, Checkpoint: CheckpointConfig{Every: 1, Dir: t.TempDir()}})
	t.Cleanup(srv.Close)
	key, err := srv.AddGroup(testModel(), core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := srv.OpenSession(key, "sess")
	if err != nil {
		t.Fatal(err)
	}
	inputs := genBatches(23, 8, 4, data.Fog, 3)
	ctx := context.Background()
	if _, err := st.ProcessSeq(ctx, inputs[0], 1); !errors.Is(err, ErrReplicaFault) {
		t.Fatalf("dispatch 1: err = %v, want ErrReplicaFault", err)
	}
	pollSnapshot(t, srv, key, func(s GroupSnapshot) bool { return s.Respawns == 1 })
	for seq, x := range inputs {
		if _, err := st.ProcessSeq(ctx, x, uint64(seq+1)); err != nil {
			t.Fatalf("seq %d: %v", seq+1, err)
		}
	}
	s := pollSnapshot(t, srv, key, func(s GroupSnapshot) bool { return s.Replicas == 1 })
	if s.Faults != 1 || s.Respawns != 1 || s.NumericResets != 1 || s.CheckpointFailures != 1 {
		t.Fatalf("faults/respawns/numeric resets/checkpoint failures = %d/%d/%d/%d, want 1/1/1/1",
			s.Faults, s.Respawns, s.NumericResets, s.CheckpointFailures)
	}
	return s
}

// TestGroupStatsSnapshotFields pins the satellite additions: queue depth,
// lifetime coalesced count, and per-stream snapshots sorted by ID.
func TestGroupStatsSnapshotFields(t *testing.T) {
	srv := New(Config{MaxBatch: 8, MaxLinger: 0})
	m := testModel()
	key, err := srv.AddGroup(m, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var streams []*Stream
	for i := 0; i < 3; i++ {
		st, err := srv.OpenStream(key)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	for round := 0; round < 2; round++ {
		var resps []<-chan Response
		for _, st := range streams {
			resps = append(resps, st.SubmitCtx(context.Background(), tensor.New(1, m.InC, m.InHW, m.InHW)))
		}
		for _, ch := range resps {
			if r := <-ch; r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}

	all := srv.Snapshot().Groups
	if len(all) != 1 {
		t.Fatalf("Stats returned %d groups, want 1", len(all))
	}
	s := all[0]
	if s.Key != key {
		t.Fatalf("Stats key = %v, want %v", s.Key, key)
	}
	if s.Requests != 6 || s.Images != 6 {
		t.Fatalf("Requests/Images = %d/%d, want 6/6", s.Requests, s.Images)
	}
	if s.QueueDepth != 0 || s.PendingImages != 0 {
		t.Errorf("idle queue depth %d (%d images), want 0", s.QueueDepth, s.PendingImages)
	}
	// With a single replica and pipelined submits, at least one Process
	// call must have coalesced multiple requests.
	if s.Batches == 6 && s.Coalesced != 0 {
		t.Errorf("no coalescing happened but Coalesced = %d", s.Coalesced)
	}
	if s.Batches < 6 && s.Coalesced == 0 {
		t.Errorf("%d batches served 6 requests but Coalesced = 0", s.Batches)
	}
	if len(s.Streams) != 3 {
		t.Fatalf("got %d stream snapshots, want 3", len(s.Streams))
	}
	for i, ss := range s.Streams {
		if ss.ID != i {
			t.Errorf("stream snapshot %d has ID %d (want ascending by ID)", i, ss.ID)
		}
		if ss.Requests != 2 || ss.Images != 2 {
			t.Errorf("stream %d: Requests/Images = %d/%d, want 2/2", ss.ID, ss.Requests, ss.Images)
		}
		if ss.E2E.Count != 2 {
			t.Errorf("stream %d: E2E.Count = %d, want 2", ss.ID, ss.E2E.Count)
		}
	}
}
