package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/telemetry"
)

// Snapshot is the server-wide stats payload: every group, sorted by key.
// It is the one stable wire shape shared by the Go API (Server.Snapshot),
// the HTTP front-end's /debug/streams handler and the load generator.
// Field order is fixed by the struct, so the JSON encoding is
// deterministic.
type Snapshot struct {
	Groups []GroupSnapshot `json:"groups"`
}

// GroupSnapshot is a group's aggregate serving metrics.
type GroupSnapshot struct {
	Key      GroupKey `json:"key"`
	Replicas int      `json:"replicas"`
	Stateful bool     `json:"stateful"`
	// MinReplicas/MaxReplicas are the autoscaler clamp (zero when
	// autoscaling is disabled); ScaleUps/ScaleDowns count its decisions.
	MinReplicas int `json:"min_replicas,omitempty"`
	MaxReplicas int `json:"max_replicas,omitempty"`
	ScaleUps    int `json:"scale_ups,omitempty"`
	ScaleDowns  int `json:"scale_downs,omitempty"`
	// Batches counts adapter Process calls; Requests and Images count the
	// submissions they served. MeanCoalesced = Images/Batches is the
	// effective batching factor.
	Batches  int `json:"batches"`
	Requests int `json:"requests"`
	Images   int `json:"images"`
	// Coalesced is the lifetime count of requests that shared a Process
	// call with at least one other request.
	Coalesced     int     `json:"coalesced"`
	MaxCoalesced  int     `json:"max_coalesced"`
	MeanCoalesced float64 `json:"mean_coalesced"`
	// Shed counts requests rejected at admission (AdmitShed full-queue
	// rejections); Canceled counts requests whose context expired while
	// queued. Neither consumed a replica slot.
	Shed     int `json:"shed"`
	Canceled int `json:"canceled"`
	// QueueDepth is the pending-queue length at snapshot time;
	// MaxQueueDepth its lifetime peak (bounded by QueueCap).
	QueueDepth    int `json:"queue_depth"`
	PendingImages int `json:"pending_images"`
	MaxQueueDepth int `json:"max_queue_depth"`
	// Replica health. Faults counts quarantined replicas (panics plus
	// watchdog kills) over the group's lifetime; Respawns counts the
	// replacements that came up; Respawning is how many replacements are
	// being constructed right now. Replicas already excludes quarantined
	// members, so Replicas+Respawning is the target pool size mid-recovery.
	Faults     int `json:"faults,omitempty"`
	Respawns   int `json:"respawns,omitempty"`
	Respawning int `json:"respawning,omitempty"`
	// QuarantinedIDs lists the most recently quarantined replica IDs
	// (bounded history, oldest first) for postmortem correlation.
	QuarantinedIDs []int `json:"quarantined_ids,omitempty"`
	// NumericResets counts poisoned adaptation states (NaN/Inf detected
	// after a Process call) that were reset to the episode-start snapshot.
	NumericResets int `json:"numeric_resets,omitempty"`
	// CheckpointWrites/CheckpointFailures count session checkpoint
	// attempts; a failure never fails the request, only the checkpoint.
	CheckpointWrites   int `json:"checkpoint_writes,omitempty"`
	CheckpointFailures int `json:"checkpoint_failures,omitempty"`
	// Recovery is the fault-to-first-served distribution: the time from a
	// replica quarantine to the group's next successfully served batch.
	Recovery LatencySnapshot `json:"recovery"`
	// Service is per-Process wall time; E2E is per-request submit-to-
	// response time (queue wait + service).
	Service LatencySnapshot `json:"service"`
	E2E     LatencySnapshot `json:"e2e"`
	// Streams snapshots every open stream, ascending by ID.
	Streams []StreamSnapshot `json:"streams"`
}

// StreamSnapshot summarizes one stream's served requests.
type StreamSnapshot struct {
	ID int `json:"id"`
	// Name is the session name for recoverable streams (OpenSession);
	// empty for anonymous streams.
	Name     string `json:"name,omitempty"`
	Requests int    `json:"requests"`
	Images   int    `json:"images"`
	// AppliedSeq is the highest applied sequence number for streams using
	// the SubmitSeq idempotency protocol; 0 otherwise.
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	// E2E is the submit-to-response latency distribution.
	E2E LatencySnapshot `json:"e2e"`
}

// LatencySnapshot is a latency distribution in the stable wire shape.
// Durations marshal as integer nanoseconds (the encoding/json rendering
// of time.Duration), so the encoding is exact and deterministic.
type LatencySnapshot struct {
	Count int           `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// newLatencySnapshot copies a histogram summary into the wire shape.
func newLatencySnapshot(s telemetry.Summary) LatencySnapshot {
	return LatencySnapshot{Count: s.Count, Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max}
}

// String formats the snapshot's headline numbers the way the CLI prints
// latency summaries.
func (l LatencySnapshot) String() string {
	if l.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50=%v p95=%v p99=%v max=%v (n=%d)",
		l.P50.Round(time.Microsecond), l.P95.Round(time.Microsecond),
		l.P99.Round(time.Microsecond), l.Max.Round(time.Microsecond), l.Count)
}

// groupKeyJSON is GroupKey's wire form: both halves as strings, so the
// payload never leaks the numeric Algorithm enum.
type groupKeyJSON struct {
	Model string `json:"model"`
	Algo  string `json:"algo"`
}

// MarshalJSON renders the key with its algorithm spelled the paper's way.
func (k GroupKey) MarshalJSON() ([]byte, error) {
	return json.Marshal(groupKeyJSON{Model: k.ModelTag, Algo: k.Algo.String()})
}

// UnmarshalJSON parses the wire form, accepting any spelling
// core.ParseAlgorithm does.
func (k *GroupKey) UnmarshalJSON(b []byte) error {
	var w groupKeyJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	algo, err := core.ParseAlgorithm(w.Algo)
	if err != nil {
		return err
	}
	k.ModelTag = w.Model
	k.Algo = algo
	return nil
}

// Snapshot snapshots every group, sorted by key — the payload behind the
// HTTP front-end's /debug/streams endpoint.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	groups := make([]*group, 0, len(s.groups))
	for _, g := range s.groups {
		groups = append(groups, g)
	}
	s.mu.Unlock()
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].key.String() < groups[j].key.String()
	})
	out := Snapshot{Groups: make([]GroupSnapshot, 0, len(groups))}
	for _, g := range groups {
		out.Groups = append(out.Groups, g.snapshot())
	}
	return out
}

// GroupSnapshot reports one group's aggregate serving metrics.
func (s *Server) GroupSnapshot(key GroupKey) (GroupSnapshot, error) {
	s.mu.Lock()
	g, ok := s.groups[key]
	s.mu.Unlock()
	if !ok {
		return GroupSnapshot{}, errNoGroup(key)
	}
	return g.snapshot(), nil
}

// snapshot snapshots the group. The group lock covers only the counter
// and plain-field copy — every counter update also happens under it, so
// the copy is a consistent cut; percentile computation (which sorts up to
// a full histogram window) runs after release, against the internally
// locked histograms, so a slow scrape never stalls the dispatch path.
func (g *group) snapshot() GroupSnapshot {
	g.mu.Lock()
	m := g.met
	s := GroupSnapshot{
		Key:           g.key,
		Replicas:      len(g.replicas) - g.retire,
		Stateful:      g.stateful,
		ScaleUps:      g.scaleUps,
		ScaleDowns:    g.scaleDowns,
		Batches:       int(m.batches.Value()),
		Requests:      int(m.requests.Value()),
		Images:        int(m.images.Value()),
		Coalesced:     int(m.coalesced.Value()),
		MaxCoalesced:  g.maxCoalesced,
		Shed:          int(m.shed.Value()),
		Canceled:      int(m.canceled.Value()),
		QueueDepth:    len(g.pending),
		PendingImages: g.pendingImages,
		MaxQueueDepth: g.queueMax,

		Faults:             int(m.faults.Value()),
		Respawns:           int(m.respawns.Value()),
		Respawning:         int(m.respawning.Value()),
		NumericResets:      int(m.numericResets.Value()),
		CheckpointWrites:   g.ckptWrites,
		CheckpointFailures: int(m.ckptFailures.Value()),
	}
	if len(g.quarantinedIDs) > 0 {
		s.QuarantinedIDs = append([]int(nil), g.quarantinedIDs...)
	}
	if a := g.cfg.Autoscale; a.Enabled {
		s.MinReplicas, s.MaxReplicas = a.Min, a.Max
	}
	type streamRef struct {
		ss  StreamSnapshot
		e2e *telemetry.Hist
	}
	refs := make([]streamRef, 0, len(g.streams))
	for _, st := range g.streams {
		refs = append(refs, streamRef{
			ss: StreamSnapshot{
				ID: st.id, Name: st.name,
				Requests: st.requests, Images: st.images,
				AppliedSeq: st.appliedSeq,
			},
			e2e: &st.e2e,
		})
	}
	g.mu.Unlock()

	s.Service = newLatencySnapshot(g.batchHist.Summary())
	s.E2E = newLatencySnapshot(g.e2eHist.Summary())
	s.Recovery = newLatencySnapshot(g.recoveryHist.Summary())
	if s.Batches > 0 {
		s.MeanCoalesced = float64(s.Images) / float64(s.Batches)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].ss.ID < refs[j].ss.ID })
	for _, r := range refs {
		r.ss.E2E = newLatencySnapshot(r.e2e.Summary())
		s.Streams = append(s.Streams, r.ss)
	}
	return s
}
