package main

import (
	"time"

	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
	"edgetta/perfbench/fixture"
)

// loadConns is the number of load-generating connections and sender
// goroutines: the box's two vCPUs.
const loadConns = 2

// harness runs one server process for a wire workload and measures the
// timed window around it: serve.Snapshot deltas, the server's report, and
// the connections' round-trip counts.
type harness struct {
	e     *env
	srv   *serverProc
	conns []*conn
	ctl   *httpapi.Client // snapshots, outside the load connections
	// setupCPU and setupWall hold one sample per set-up; setupCPU adds the
	// benchmark's and the server's CPU time.
	setupCPU, setupWall []float64

	before     serve.GroupSnapshot
	trips0     int64
	start0     time.Time
	window     time.Duration
	delta      serveDelta
	rep        fixture.ServerReport
	tripsDelta int64
	cpu0       time.Duration
	serverCPU  time.Duration // the server's CPU time over the window
}

// start launches a server with args and opens the load connections.
func (h *harness) start(args ...string) error {
	args = append([]string{"-dir", h.e.dir}, args...)
	if h.e.traced {
		args = append(args, "-trace")
	}
	srv, err := startServer(h.e.serverBin, args...)
	if err != nil {
		return err
	}
	h.srv = srv
	h.ctl = httpapi.NewClient(srv.base, srv.ctl)
	h.conns = h.conns[:0]
	for i := 0; i < loadConns; i++ {
		h.conns = append(h.conns, newConn(srv.base, subSeed(h.e.seed, 100+i)))
	}
	return nil
}

// setupDone records one set-up that began at wall time t0 and benchmark
// CPU time c0.
func (h *harness) setupDone(t0 time.Time, c0 time.Duration) error {
	wall := time.Since(t0)
	server, err := h.srv.cpu()
	if err != nil {
		return err
	}
	self, err := fixture.CPUTime()
	if err != nil {
		return err
	}
	h.setupCPU = append(h.setupCPU, (self - c0 + server).Seconds())
	h.setupWall = append(h.setupWall, wall.Seconds())
	return nil
}

// close stops the server, if one runs, and waits for it to exit.
func (h *harness) close() {
	for _, c := range h.conns {
		c.close()
	}
	h.conns = nil
	if h.srv != nil {
		h.srv.stop()
		h.srv = nil
	}
}

func (h *harness) trips() int64 {
	var n int64
	for _, c := range h.conns {
		n += c.rt.roundTrips.Load()
	}
	return n
}

// snapshot reads the group's stats, recording a span on traced runs.
func (h *harness) snapshot() (serve.GroupSnapshot, error) {
	t0 := time.Now()
	g, err := groupSnapshot(h.ctl)
	h.e.tr.add("serve.Snapshot", 0, 0, t0, time.Now())
	return g, err
}

// open starts the timed window.
func (h *harness) open() error {
	var err error
	if h.before, err = h.snapshot(); err != nil {
		return err
	}
	if h.e.traced {
		if err := h.srv.startProfile(); err != nil {
			return err
		}
	}
	if h.cpu0, err = h.srv.cpu(); err != nil {
		return err
	}
	h.trips0 = h.trips()
	h.start0 = time.Now()
	return nil
}

// closeWindow ends the timed window and collects the server's side of it.
func (h *harness) closeWindow() error {
	h.window = time.Since(h.start0)
	h.tripsDelta = h.trips() - h.trips0
	cpu1, err := h.srv.cpu()
	if err != nil {
		return err
	}
	h.serverCPU = cpu1 - h.cpu0
	after, err := h.snapshot()
	if err != nil {
		return err
	}
	h.delta = snapshotDelta(h.before, after)
	h.rep, err = h.srv.report()
	return err
}

// common sets the metrics both wire workloads derive the same way.
func (h *harness) common(r *result) {
	r.metrics["setup_s"] = median(h.setupCPU)
	r.metrics["setup_wall_s"] = median(h.setupWall)
	r.metrics["cpu_ms_per_img"] = ms(h.serverCPU) / float64(max(h.delta.Images, 1))
	r.metrics["peak_rss_mb"] = float64(h.rep.VmHWMKB) / 1024
	r.note("set-up CPU s %.4v, wall s %.4v; server pool_width %d gomaxprocs %d",
		h.setupCPU, h.setupWall, h.rep.Workers, h.rep.GOMAXPROCS)
}

// layerMetrics adds the traced run's serve, httpapi, core, nn and tensor
// metrics. calls are the window's client calls, recorded as clientSpan.
func (h *harness) layerMetrics(r *result, calls []served, clientSpan, tag string, batch int) error {
	for k, v := range h.delta.layerMetrics(h.window) {
		r.metrics[k] = v
	}
	var remote []span
	handler := map[int64]time.Duration{}
	var reqBytes, respBytes int64
	var handlerMS []float64
	for _, s := range h.rep.Handler {
		if s.Req == 0 { // set-up traffic
			continue
		}
		sp := span{Name: "httpapi.ServeHTTP", Req: s.Req, Start: s.Start, End: s.End}
		remote = append(remote, sp)
		handler[s.Req] += sp.dur()
		handlerMS = append(handlerMS, ms(sp.dur()))
		reqBytes += s.ReqBytes
		respBytes += s.RespBytes
	}
	h.e.tr.adopt(remote, clientSpan)
	var clientMS []float64
	for _, c := range calls {
		if c.err == nil {
			clientMS = append(clientMS, ms(c.end.Sub(c.start)-handler[c.req]))
		}
	}
	hd := newDist(handlerMS)
	n := float64(max(len(handlerMS), 1))
	r.metrics["httpapi.handler_ms_p50"] = hd.val(50)
	r.metrics["httpapi.client_ms_p50"] = newDist(clientMS).val(50)
	r.metrics["httpapi.server_codec_ms_mean"] = hd.mean() - ms(h.delta.E2ETotal)/float64(max(h.delta.Requests, 1))
	r.metrics["httpapi.req_kb"] = float64(reqBytes) / 1024 / n
	r.metrics["httpapi.resp_kb"] = float64(respBytes) / 1024 / n
	r.metrics["httpapi.retries"] = float64(h.tripsDelta - int64(len(calls)))
	r.metrics["core.glue_pct"] = gluePct(h.delta.ServiceTotal, h.rep.NN.Total())
	for k, v := range nnMetrics(h.rep.NN, h.delta.Batches) {
		r.metrics[k] = v
	}
	return convStatics(h.e, tag, batch, h.delta.Images, h.rep.NN, r)
}
