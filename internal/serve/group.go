package serve

import (
	"context"
	"sync"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// groupMetrics is a group's registered telemetry handles. Its counters are
// the only record of the group's lifetime counts: every update happens
// under the group mutex and the group's snapshot reads them back with
// Value, so a Snapshot and /metrics can never disagree. The state gauges
// are set wherever that state changes. Every group has them — when the
// server has no Registry they live in a private one nobody scrapes.
type groupMetrics struct {
	queueDepth    *telemetry.Gauge   // current pending requests
	pendingImages *telemetry.Gauge   // image total of the pending queue
	openStreams   *telemetry.Gauge   // streams currently open
	replicas      *telemetry.Gauge   // live replica count (autoscaled)
	requests      *telemetry.Counter // lifetime requests served
	images        *telemetry.Counter // lifetime images served
	batches       *telemetry.Counter // lifetime Process calls
	coalesced     *telemetry.Counter // lifetime requests served in shared Process calls
	shed          *telemetry.Counter // lifetime requests rejected at admission (AdmitShed)
	canceled      *telemetry.Counter // lifetime requests canceled while queued
	respawning    *telemetry.Gauge   // replicas currently being respawned
	faults        *telemetry.Counter // lifetime replica quarantines (panic/watchdog)
	respawns      *telemetry.Counter // lifetime completed replica respawns
	numericResets *telemetry.Counter // lifetime numeric-guard source resets
	ckptFailures  *telemetry.Counter // lifetime failed checkpoint writes
}

// newGroupMetrics registers the group's metrics under its key label.
func newGroupMetrics(reg *telemetry.Registry, key GroupKey) *groupMetrics {
	l := []string{"group", key.String()}
	return &groupMetrics{
		queueDepth:    reg.Gauge("edgetta_serve_queue_depth", l...),
		pendingImages: reg.Gauge("edgetta_serve_pending_images", l...),
		openStreams:   reg.Gauge("edgetta_serve_open_streams", l...),
		replicas:      reg.Gauge("edgetta_serve_replicas", l...),
		requests:      reg.Counter("edgetta_serve_requests_total", l...),
		images:        reg.Counter("edgetta_serve_images_total", l...),
		batches:       reg.Counter("edgetta_serve_batches_total", l...),
		coalesced:     reg.Counter("edgetta_serve_coalesced_requests_total", l...),
		shed:          reg.Counter("edgetta_serve_shed_total", l...),
		canceled:      reg.Counter("edgetta_serve_canceled_total", l...),
		respawning:    reg.Gauge("edgetta_serve_respawning", l...),
		faults:        reg.Counter("edgetta_serve_replica_faults_total", l...),
		respawns:      reg.Counter("edgetta_serve_respawns_total", l...),
		numericResets: reg.Counter("edgetta_serve_numeric_resets_total", l...),
		ckptFailures:  reg.Counter("edgetta_serve_checkpoint_failures_total", l...),
	}
}

// replica is one shared model instance: a deep clone of the group's model
// wrapped in its adapter. A replica processes one batch at a time; its
// owning worker goroutine is the only one that touches the adapter.
type replica struct {
	id      int
	adapter core.Adapter
	// concat is the replica's reusable coalescing buffer. Reuse is safe:
	// only stateless adapters coalesce, their Process never reads the
	// input again after returning, and the next coalesced call fully
	// overwrites the prefix it uses.
	concat []float32
}

// streamState is the server-side record of one open stream.
type streamState struct {
	id int
	// state is the stream's adaptation state between requests (stateful
	// groups only). It is accessed only by the worker currently holding
	// the stream's single in-flight request, or — between requests — under
	// the group mutex via the inflight gate, so it needs no lock of its own.
	// Stream.Close nils it only after the stream's last admitted request
	// has drained (pending == 0), never while a worker may still read it.
	state core.AdapterState
	// inflight marks that a worker is processing a request of this stream
	// (stateful groups serialize per-stream requests through it).
	inflight bool
	// pending counts the stream's admitted-but-undelivered requests:
	// queued plus dispatched. Close waits for it to reach zero before
	// releasing state (drain-then-release).
	pending int
	closed  bool

	// name is the session name for named (recoverable) streams, "" for
	// anonymous ones. Named stateful streams are checkpointed every
	// Checkpoint.Every applied batches.
	name string

	// Sequenced-submit accounting (guarded by the group mutex).
	// appliedSeq is the highest sequence number whose batch has been
	// applied to the stream's state; enqSeq the highest admitted one
	// (reserved positions, rolled back on fault/cancel). cachedSeq/cached
	// hold the last applied sequenced response for idempotent replay.
	appliedSeq uint64
	enqSeq     uint64
	cachedSeq  uint64
	cached     Response
	// applied counts batches applied since the stream opened (or resumed),
	// driving the checkpoint cadence.
	applied int

	// per-stream metrics, guarded by the group mutex.
	requests int
	images   int
	e2e      telemetry.Hist
}

// request is one pending SubmitCtx.
type request struct {
	st  *streamState
	ctx context.Context
	x   *tensor.Tensor
	n   int // images
	// seq is the request's sequence number (0 = unsequenced). A sequenced
	// stateful request dispatches only at its protocol position
	// (st.appliedSeq + 1), no matter where it sits in the queue.
	seq uint64
	enq time.Time
	// queued is true while the request sits in g.pending (guarded by
	// g.mu). Exactly one of the dispatcher and the cancellation watcher
	// flips it, so exactly one of them delivers the response.
	queued bool
	// stopCancel deregisters the context watcher; the dispatcher calls it
	// when it takes the request off the queue.
	stopCancel func() bool
	resp       chan Response
}

// Response delivers one request's results.
type Response struct {
	// Logits holds one row of class scores per submitted image.
	Logits *tensor.Tensor
	Err    error
	// QueueWait is the time from SubmitCtx to Process start; Service is the
	// Process call's duration (shared by every request coalesced into it).
	QueueWait time.Duration
	Service   time.Duration
	// BatchImages is the total image count of the Process call this
	// request was served by (> the request's own count when coalesced).
	BatchImages int
}

// group is one replica pool plus its pending queue and metrics.
type group struct {
	key      GroupKey
	cfg      Config
	stateful bool
	initial  core.AdapterState

	// template is a pristine clone the autoscaler grows new replicas
	// from; algo and acfg rebuild their adapters.
	template *models.Model
	algo     core.Algorithm
	acfg     core.Config

	inC, inHW, classes int

	mu   sync.Mutex
	cond *sync.Cond
	// replicas is the live pool (including workers marked for retirement
	// that have not yet exited); retire counts pending retirements.
	replicas      []*replica
	nextReplicaID int
	retire        int
	// active counts dispatched-but-unfinished Process calls.
	active int
	// pending is the FIFO request queue; pendingImages tracks its image
	// total for the coalescing policy and queueMax for the stats.
	pending       []*request
	pendingImages int
	queueMax      int
	timerArmed    bool
	closed        bool
	nextStreamID  int
	streams       map[int]*streamState
	// names indexes the open named sessions; store is the server-wide
	// checkpoint store (nil when checkpointing is disabled) and
	// initialShape the flattened shape of the episode-start state, used to
	// validate checkpoints before restoring them.
	names        map[string]*streamState
	store        *ckptStore
	initialShape map[string]int

	// aggregate metrics not kept in met: the peak coalesced batch, the
	// autoscaler's decisions, the recent quarantined replica IDs (bounded
	// history for the health snapshot) and the checkpoint writes.
	maxCoalesced   int
	scaleUps       int
	scaleDowns     int
	quarantinedIDs []int
	ckptWrites     int
	// lastFaultAt, when set, starts the fault→first-served recovery clock;
	// the next successful commit observes it into recoveryHist.
	lastFaultAt  time.Time
	recoveryHist *telemetry.Hist
	// serviceEMA is a cheap running estimate of per-Process wall time,
	// feeding the retry-after suggestion on shed (reading the histogram's
	// Summary would sort the window under pressure).
	serviceEMA time.Duration
	batchHist  *telemetry.Hist // service time per Process call
	e2eHist    *telemetry.Hist // submit-to-response time per request

	// autoscale controller state (single ticker, see scaler.go).
	upStreak, downStreak int
	stopScale            chan struct{}
	wg                   sync.WaitGroup

	// met holds the group's counters and gauges (see groupMetrics).
	met *groupMetrics
}

func (g *group) openStream() *Stream {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := &streamState{id: g.nextStreamID}
	g.nextStreamID++
	if g.stateful {
		st.state = g.initial
	}
	g.streams[st.id] = st
	g.met.openStreams.Set(int64(len(g.streams)))
	return &Stream{g: g, st: st}
}

// close shuts the group down: new submissions fail, queued requests drain,
// workers and the scale controller exit.
func (g *group) close() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.stopScale)
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// closeStream implements Stream.Close's drain-then-release contract: mark
// the stream closed (later submissions fail with ErrStreamClosed), wait
// for every already-admitted request to finish — a queued or in-flight
// request still references the stream's adaptation state — and only then
// drop the stream record and release the state.
func (g *group) closeStream(st *streamState) {
	g.mu.Lock()
	if st.closed {
		g.mu.Unlock()
		return
	}
	st.closed = true
	g.cond.Broadcast() // wake submitters blocked on admission for this stream
	for st.pending > 0 || st.inflight {
		g.cond.Wait()
	}
	delete(g.streams, st.id)
	if st.name != "" {
		delete(g.names, st.name)
	}
	st.state = nil
	g.met.openStreams.Set(int64(len(g.streams)))
	g.cond.Broadcast()
	g.mu.Unlock()
	// An explicitly closed session ended its episode; its checkpoint is no
	// longer a recovery target (disk I/O happens off the group lock).
	if st.name != "" && g.store != nil {
		g.store.remove(st.name)
	}
}

// startReplica adds r to the pool and spawns its worker.
func (g *group) startReplica(r *replica) {
	g.mu.Lock()
	g.replicas = append(g.replicas, r)
	g.met.replicas.Set(int64(len(g.replicas) - g.retire))
	g.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.recoverWorker(r)
		g.serveLoop(r)
	}()
}

// dropReplicaLocked removes r from the pool; the caller holds g.mu and r's
// worker is about to exit.
func (g *group) dropReplicaLocked(r *replica) {
	for i, x := range g.replicas {
		if x == r {
			g.replicas = append(g.replicas[:i], g.replicas[i+1:]...)
			break
		}
	}
	g.met.replicas.Set(int64(len(g.replicas) - g.retire))
}

// retryAfterLocked suggests a client backoff for a shed rejection: the
// time for the live pool to work off the current queue, estimated from the
// service-time EMA. Clamped to [1ms, 2s]; 25ms before any call completed.
func (g *group) retryAfterLocked(depth int) time.Duration {
	live := len(g.replicas) - g.retire
	if live < 1 {
		live = 1
	}
	ra := 25 * time.Millisecond
	if g.serviceEMA > 0 {
		ra = g.serviceEMA * time.Duration(depth) / time.Duration(live)
	}
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	if ra > 2*time.Second {
		ra = 2 * time.Second
	}
	return ra
}

// submit admits one request under the group's admission policy. The
// returned channel is buffered, so neither workers nor the cancellation
// watcher ever block delivering. The request context is honored while the
// request is blocked on admission and while it waits in the queue; once a
// replica dispatches it, it runs to completion.
//
// seq, when nonzero on a stateful group, is the stream's monotonic submit
// sequence number, making retries idempotent: a duplicate of the last
// applied batch replays the cached response without re-adapting, a
// duplicate of an admitted-but-unsettled batch waits for the original (and
// takes over as the retry if the original faults), and anything else out
// of order fails with CodeSequence carrying the expected number.
func (g *group) submit(ctx context.Context, st *streamState, x *tensor.Tensor, seq uint64) <-chan Response {
	resp := make(chan Response, 1)
	fail := func(err error) <-chan Response {
		resp <- Response{Err: err}
		return resp
	}
	if x == nil || x.NDim() != 4 {
		return fail(errBadRequest("%s: batch must be NCHW, got %v", g.key, shapeOf(x)))
	}
	if x.Dim(1) != g.inC || x.Dim(2) != g.inHW || x.Dim(3) != g.inHW {
		return fail(errBadRequest("%s: batch shape %v does not match model input %dx%dx%d",
			g.key, x.Shape(), g.inC, g.inHW, g.inHW))
	}
	if ctx.Err() != nil {
		return fail(ctxErr(ctx))
	}
	if !g.stateful {
		// Stateless groups have no adaptation state to double-apply, so
		// sequence numbers carry no obligation; re-processing a retried
		// batch is byte-identical and side-effect free.
		seq = 0
	}
	req := &request{st: st, ctx: ctx, x: x, n: x.Dim(0), seq: seq, enq: time.Now(), resp: resp}

	g.mu.Lock()
	if seq > 0 {
		done, err := g.sequenceGateLocked(ctx, st, seq, resp)
		if err != nil {
			g.mu.Unlock()
			return fail(err)
		}
		if done {
			g.mu.Unlock()
			return resp
		}
	}
	if len(g.pending) >= g.cfg.QueueCap && !g.closed && !st.closed {
		if g.cfg.Admission == AdmitShed {
			depth := len(g.pending)
			ra := g.retryAfterLocked(depth)
			g.met.shed.Inc()
			victims := g.releaseSeqLocked(st, seq)
			g.mu.Unlock()
			g.failSequenceVictims(victims, seq)
			return fail(errOverloaded(g.key, depth, ra))
		}
		// AdmitBlock: wait for space, waking on context expiry too. The
		// watcher only broadcasts — the wait condition re-checks ctx.
		stop := context.AfterFunc(ctx, func() {
			g.mu.Lock()
			g.cond.Broadcast()
			g.mu.Unlock()
		})
		for len(g.pending) >= g.cfg.QueueCap && !g.closed && !st.closed && ctx.Err() == nil {
			g.cond.Wait()
		}
		stop()
		if len(g.pending) >= g.cfg.QueueCap && !g.closed && !st.closed {
			// Only the context expired.
			victims := g.releaseSeqLocked(st, seq)
			g.mu.Unlock()
			g.failSequenceVictims(victims, seq)
			return fail(ctxErr(ctx))
		}
	}
	if g.closed || st.closed {
		victims := g.releaseSeqLocked(st, seq)
		g.mu.Unlock()
		g.failSequenceVictims(victims, seq)
		if st.closed {
			return fail(ErrStreamClosed)
		}
		return fail(ErrClosed)
	}
	req.queued = true
	st.pending++
	g.pending = append(g.pending, req)
	g.pendingImages += req.n
	if len(g.pending) > g.queueMax {
		g.queueMax = len(g.pending)
	}
	g.updateQueueGauges()
	if ctx.Done() != nil {
		// Watch for expiry while queued; the dispatcher deregisters this
		// when it takes the request.
		req.stopCancel = context.AfterFunc(ctx, func() { g.cancelQueued(req) })
	}
	g.cond.Broadcast()
	g.mu.Unlock()
	return resp
}

// sequenceGateLocked enforces the stream's submit protocol for a sequenced
// request. It returns done=true when the response was already delivered
// (idempotent replay of the last applied batch), a non-nil error for a
// protocol violation, or (false, nil) after reserving the stream's next
// protocol position — the caller proceeds to admission. The caller holds
// g.mu throughout (the wait for an in-flight duplicate releases it inside
// cond.Wait).
func (g *group) sequenceGateLocked(ctx context.Context, st *streamState, seq uint64, resp chan Response) (done bool, err error) {
	for {
		if g.closed || st.closed {
			// Fall through to the standard closed handling in submit.
			return false, nil
		}
		if seq <= st.appliedSeq {
			if seq == st.cachedSeq {
				// Idempotent replay: the batch was applied but the response
				// was lost (replica fault after apply never happens, but a
				// connection can drop between apply and read). Serve the
				// cached response without re-adapting.
				resp <- st.cached
				return true, nil
			}
			return false, errSequence(g.key, seq, st.enqSeq+1)
		}
		if seq <= st.enqSeq {
			// The same position is already admitted: an earlier identical
			// submit is queued or in flight. Wait for it to settle — if it
			// completes we replay its cached response; if its replica
			// faults the reservation rolls back and this submit takes over
			// as the retry.
			stop := context.AfterFunc(ctx, func() {
				g.mu.Lock()
				g.cond.Broadcast()
				g.mu.Unlock()
			})
			for seq > st.appliedSeq && seq <= st.enqSeq && !g.closed && !st.closed && ctx.Err() == nil {
				g.cond.Wait()
			}
			stop()
			if ctx.Err() != nil && seq > st.appliedSeq && seq <= st.enqSeq {
				return false, ctxErr(ctx)
			}
			continue
		}
		if seq != st.enqSeq+1 {
			return false, errSequence(g.key, seq, st.enqSeq+1)
		}
		// Reserve the position before any admission wait, so a concurrent
		// duplicate of the same seq lands in the wait branch above instead
		// of being admitted twice.
		st.enqSeq = seq
		return false, nil
	}
}

// releaseSeqLocked rolls back a sequence reservation whose request never
// made it into the queue (admission failed): later queued requests of the
// stream can no longer reach their protocol position, so they are removed
// for the caller to fail, and the reservation high-water mark returns to
// just below the failed position — the stream accepts a retry of seq next.
// No-op for unsequenced requests.
func (g *group) releaseSeqLocked(st *streamState, seq uint64) []*request {
	if seq == 0 {
		return nil
	}
	victims := g.cascadeLocked(st, seq, false)
	for _, q := range victims {
		q.st.pending--
	}
	if st.enqSeq >= seq {
		st.enqSeq = seq - 1
	}
	g.updateQueueGauges()
	g.cond.Broadcast()
	return victims
}

// failSequenceVictims delivers the cascade error to requests stranded by a
// rolled-back reservation: the stream accepts expect next.
func (g *group) failSequenceVictims(victims []*request, expect uint64) {
	for _, q := range victims {
		q.resp <- Response{Err: errSequence(g.key, q.seq, expect)}
	}
}

// cancelQueued removes a still-queued request whose context expired and
// delivers the typed context error. If the dispatcher got there first
// (queued already false) the request proceeds normally and this is a no-op.
func (g *group) cancelQueued(req *request) {
	g.mu.Lock()
	if !req.queued {
		g.mu.Unlock()
		return
	}
	for i, r := range g.pending {
		if r == req {
			g.pending = append(g.pending[:i], g.pending[i+1:]...)
			break
		}
	}
	req.queued = false
	g.pendingImages -= req.n
	req.st.pending--
	g.met.canceled.Inc()
	// A canceled sequenced request leaves a hole in the protocol order;
	// later queued positions of the stream can never dispatch, so they are
	// failed too and the reservation rolls back to accept a resubmit.
	victims := g.releaseSeqLocked(req.st, req.seq)
	g.updateQueueGauges()
	g.cond.Broadcast() // queue space freed; Close may be waiting on st.pending
	g.mu.Unlock()
	g.failSequenceVictims(victims, req.seq)
	req.resp <- Response{Err: ctxErr(req.ctx)}
}

// updateQueueGauges publishes the queue's current shape. Callers hold
// g.mu; the gauge writes are two atomic stores.
func (g *group) updateQueueGauges() {
	g.met.queueDepth.Set(int64(len(g.pending)))
	g.met.pendingImages.Set(int64(g.pendingImages))
}

func shapeOf(x *tensor.Tensor) []int {
	if x == nil {
		return nil
	}
	return x.Shape()
}

// serveLoop is one replica worker: take a dispatchable batch, run it under
// supervision, repeat until the group is closed and drained, the autoscaler
// retires this worker, or the replica faults and is quarantined.
func (g *group) serveLoop(r *replica) {
	for {
		reqs := g.take(r)
		if reqs == nil {
			return
		}
		if !g.runSupervised(r, reqs) {
			return
		}
	}
}

// dequeueLocked removes req from the queue for dispatch: flips its queued
// flag (so a racing cancellation becomes a no-op) and deregisters the
// context watcher. Caller holds g.mu and has already located req.
func (g *group) dequeueLocked(req *request) {
	req.queued = false
	if req.stopCancel != nil {
		req.stopCancel()
		req.stopCancel = nil
	}
}

// take blocks until it can dispatch work, honoring the batching policy.
// It returns nil when the worker should exit: the group is closed and the
// queue drained, or the autoscaler retired this worker.
func (g *group) take(r *replica) []*request {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.retire > 0 && !g.closed {
			g.retire--
			g.dropReplicaLocked(r)
			return nil
		}
		if len(g.pending) == 0 {
			if g.closed {
				g.dropReplicaLocked(r)
				return nil
			}
			g.cond.Wait()
			continue
		}
		if g.stateful {
			// Dispatch the oldest request whose stream has nothing in
			// flight; per-stream order is the adaptation protocol's order.
			// A sequenced request additionally dispatches only at its
			// protocol position — queue position is not trusted, since
			// retries and cascades can reorder the queue.
			for i, req := range g.pending {
				if !req.st.inflight && (req.seq == 0 || req.seq == req.st.appliedSeq+1) {
					req.st.inflight = true
					g.dequeueLocked(req)
					g.pending = append(g.pending[:i], g.pending[i+1:]...)
					g.pendingImages -= req.n
					g.active++
					g.updateQueueGauges()
					g.cond.Broadcast() // queue space freed
					return []*request{req}
				}
			}
			// Every pending stream is busy on another replica.
			g.cond.Wait()
			continue
		}
		// Stateless: coalesce. Fire when the batch is full, when lingering
		// is disabled or expired, or when draining at close.
		if g.pendingImages < g.cfg.MaxBatch && g.cfg.MaxLinger > 0 && !g.closed {
			wait := time.Until(g.pending[0].enq.Add(g.cfg.MaxLinger))
			if wait > 0 {
				if !g.timerArmed {
					g.timerArmed = true
					time.AfterFunc(wait, func() {
						g.mu.Lock()
						g.timerArmed = false
						g.cond.Broadcast()
						g.mu.Unlock()
					})
				}
				g.cond.Wait()
				continue
			}
		}
		var batch []*request
		taken := 0
		for len(g.pending) > 0 {
			req := g.pending[0]
			if len(batch) > 0 && taken+req.n > g.cfg.MaxBatch {
				break
			}
			g.dequeueLocked(req)
			batch = append(batch, req)
			taken += req.n
			g.pending = g.pending[1:]
			if taken >= g.cfg.MaxBatch {
				break
			}
		}
		g.pendingImages -= taken
		g.active++
		g.updateQueueGauges()
		g.cond.Broadcast() // queue space freed
		return batch
	}
}

// commit finishes one successful supervised dispatch: persist the stream's
// new state (and checkpoint it on cadence), update metrics, release the
// stream's in-flight slot, and deliver the responses.
func (g *group) commit(r *replica, reqs []*request, res computeResult, start time.Time) {
	n := 0
	for _, req := range reqs {
		n += req.n
	}
	logits := res.logits
	service := time.Since(start)

	// Checkpoint before releasing the in-flight gate: the gate is what
	// orders checkpoint writes of one stream, and the stream's next request
	// must not dispatch until its state (below) is committed anyway.
	var ckptWrote, ckptFailed bool
	if g.stateful {
		st := reqs[0].st
		every := g.cfg.Checkpoint.Every
		// st.applied is written only by the worker holding the in-flight
		// gate — us — so reading it without g.mu is safe.
		if g.store != nil && every > 0 && st.name != "" && (st.applied+1)%every == 0 {
			seq := reqs[0].seq
			if err := g.writeCheckpoint(st.name, res.state, seq); err != nil {
				ckptFailed = true
			} else {
				ckptWrote = true
			}
		}
	}

	// Trace the dispatch: one span per Process call on the replica's
	// timeline, plus one queue-wait span per request on its stream's
	// timeline — together they render the enqueue→dispatch→process life of
	// every request in the trace viewer.
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Complete("serve", "process:"+g.key.String(), r.id, start, service,
			telemetry.Arg{Key: "requests", Value: len(reqs)},
			telemetry.Arg{Key: "images", Value: n})
		for _, req := range reqs {
			tr.Complete("serve", "queue", 1000+req.st.id, req.enq, start.Sub(req.enq),
				telemetry.Arg{Key: "stream", Value: req.st.id},
				telemetry.Arg{Key: "images", Value: req.n})
		}
	}

	// Update metrics (and release the stream's in-flight slot) before
	// delivering responses, so a client that calls Snapshot right after
	// receiving its response always sees its own request counted.
	done := time.Now()
	g.mu.Lock()
	g.met.batches.Inc()
	g.met.requests.Add(int64(len(reqs)))
	g.met.images.Add(int64(n))
	g.active--
	if len(reqs) > 1 {
		g.met.coalesced.Add(int64(len(reqs)))
	}
	if n > g.maxCoalesced {
		g.maxCoalesced = n
	}
	if g.serviceEMA == 0 {
		g.serviceEMA = service
	} else {
		g.serviceEMA += (service - g.serviceEMA) / 8
	}
	g.met.numericResets.Add(int64(res.resets))
	if ckptWrote {
		g.ckptWrites++
	}
	if ckptFailed {
		g.met.ckptFailures.Inc()
	}
	if !g.lastFaultAt.IsZero() {
		// First successful serve since the last replica fault: the group's
		// fault→first-served recovery latency.
		g.recoveryHist.Observe(done.Sub(g.lastFaultAt))
		g.lastFaultAt = time.Time{}
	}
	g.batchHist.Observe(service)
	for _, req := range reqs {
		e2e := done.Sub(req.enq)
		g.e2eHist.Observe(e2e)
		req.st.requests++
		req.st.images += req.n
		req.st.pending--
		req.st.e2e.Observe(e2e)
	}
	if g.stateful {
		// Commit the post-batch adaptation state: this is the only place a
		// stream's state advances, so a faulted dispatch (which never gets
		// here) leaves the stream exactly one retry away. Then release the
		// in-flight slot — the stream's next request may dispatch (even to
		// another replica) before these responses land.
		st := reqs[0].st
		st.state = res.state
		st.applied++
		if seq := reqs[0].seq; seq > 0 {
			st.appliedSeq = seq
			if st.enqSeq < seq {
				st.enqSeq = seq
			}
			st.cachedSeq = seq
			st.cached = Response{
				Logits:      logits,
				QueueWait:   start.Sub(reqs[0].enq),
				Service:     service,
				BatchImages: n,
			}
		}
		st.inflight = false
	}
	// The stream's next request became dispatchable; a drain-then-release
	// Close may also be waiting on st.pending, and a duplicate sequenced
	// submit on the applied position.
	g.cond.Broadcast()
	g.mu.Unlock()

	// Split the output rows back to per-request responses in queue order.
	// The views share the Process call's freshly allocated logits tensor
	// over disjoint row ranges, so no copying is needed; the channels are
	// buffered, so delivery never blocks the worker.
	classes := logits.Dim(1)
	row := 0
	for _, req := range reqs {
		out := logits
		if len(reqs) > 1 {
			out = tensor.FromSlice(logits.Data[row*classes:(row+req.n)*classes], req.n, classes)
		}
		row += req.n
		req.resp <- Response{
			Logits:      out,
			QueueWait:   start.Sub(req.enq),
			Service:     service,
			BatchImages: n,
		}
	}
}
