// Command ttaserve runs the batched multi-stream TTA serving front-end:
// N concurrent corruption streams are multiplexed over a small pool of
// shared model replicas, with compatible requests coalesced into batched
// Process calls. It reports per-stream error and latency percentiles plus
// the group's aggregate throughput and batching statistics.
//
// Usage:
//
//	ttaserve -model WRN-AM -algo bnnorm -streams 8 -replicas 2
//	ttaserve -algo noadapt -maxbatch 128 -linger 2ms     # coalescing path
//	ttaserve -train                                      # robust-train first
//	ttaserve -http :8080 -hold 1m                        # observability endpoints
//	ttaserve -http :8080 -streams 0                      # serve-only (wire API)
//	ttaserve -http :8080 -streams 0 -scale 1:8 -admission shed
//	ttaserve -http :8080 -streams 0 -watchdog 5s \
//	         -checkpoint-every 4 -recover /var/lib/edgetta/ckpt
//
// With -http, the server exposes the serving wire API (POST /v1/streams,
// POST /v1/streams/{session}/submit, DELETE /v1/streams/{session} — see
// internal/serve/httpapi) alongside /metrics (Prometheus text; ?format=json
// for JSON), /debug/streams (the server-wide serve.Snapshot as JSON), and
// /debug/trace (records a Chrome trace for ?sec= seconds and streams it
// back). -streams 0 skips the built-in workload and serves remote sessions
// only, until -hold elapses (forever if 0). -hold keeps the process serving
// after a local workload finishes so the endpoints can be scraped; -trace
// writes a Chrome trace of the whole workload to a file.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/parallel"
	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
	"edgetta/internal/telemetry"
	"edgetta/internal/train"
)

func main() {
	modelTag := flag.String("model", "WRN-AM", "model tag (RXT-AM, WRN-AM, R18-AM-AT, MBV2)")
	algoName := flag.String("algo", "bnnorm", "adaptation algorithm (noadapt, bnnorm, bnopt)")
	nStreams := flag.Int("streams", 8, "concurrent corruption streams (0 = serve-only: no local workload)")
	samples := flag.Int("samples", 200, "samples per stream")
	batch := flag.Int("batch", 16, "per-stream adaptation batch size")
	severity := flag.Int("severity", 3, "corruption severity 1..5")
	replicas := flag.Int("replicas", 0, "model replicas (0 = auto-size from the worker pool)")
	maxBatch := flag.Int("maxbatch", 128, "max images coalesced into one Process call (stateless algos)")
	linger := flag.Duration("linger", 2*time.Millisecond, "max wait to gather an under-full batch")
	queueCap := flag.Int("queuecap", 64, "pending request bound (backpressure)")
	admission := flag.String("admission", "block", "full-queue policy: block (wait) or shed (reject with 429/ErrOverloaded)")
	scaleRange := flag.String("scale", "", "autoscale the replica pool within min:max (e.g. 1:8; empty = fixed pool)")
	scaleEvery := flag.Duration("scale-interval", 250*time.Millisecond, "autoscale evaluation period")
	timeout := flag.Duration("timeout", 30*time.Second, "server-side deadline per wire-API submit")
	workers := flag.Int("workers", 0, "parallel pool width (0 = GOMAXPROCS)")
	doTrain := flag.Bool("train", false, "robust-train the repro-scale model first (slower, meaningful error rates)")
	httpAddr := flag.String("http", "", "serve the wire API, /metrics, /debug/streams and /debug/trace on this address (empty = off)")
	hold := flag.Duration("hold", 0, "keep serving the HTTP endpoints this long after the workload finishes")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the workload to this file")
	watchdog := flag.Duration("watchdog", 0, "per-Process watchdog: a replica producing no result within this deadline is quarantined and replaced (0 = off)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint each named session's adaptation state every K applied batches (0 = off)")
	recoverDir := flag.String("recover", "", "checkpoint spill directory: sessions checkpoint to disk here and resume from it across restarts")
	flag.Parse()

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	algo, err := core.ParseAlgorithm(*algoName)
	if err != nil {
		fatal(err)
	}
	m, err := models.ByTag(*modelTag, rand.New(rand.NewSource(1)), models.ReproScale)
	if err != nil {
		fatal(err)
	}
	cfg := serve.Config{
		MaxBatch: *maxBatch, MaxLinger: *linger, QueueCap: *queueCap,
		Watchdog:   *watchdog,
		Checkpoint: serve.CheckpointConfig{Every: *ckptEvery, Dir: *recoverDir},
	}
	if *recoverDir != "" && *ckptEvery == 0 {
		// A spill directory without a cadence would scan but never write;
		// default to a sensible cadence so -recover alone works.
		cfg.Checkpoint.Every = 8
	}
	switch *admission {
	case "block":
		cfg.Admission = serve.AdmitBlock
	case "shed":
		cfg.Admission = serve.AdmitShed
	default:
		fatal(fmt.Errorf("unknown -admission %q (want block or shed)", *admission))
	}
	if *scaleRange != "" {
		min, max, err := parseScaleRange(*scaleRange)
		if err != nil {
			fatal(err)
		}
		cfg.Autoscale = serve.Autoscale{Enabled: true, Min: min, Max: max, Interval: *scaleEvery}
	}
	if *nStreams == 0 && *httpAddr == "" {
		fatal(fmt.Errorf("-streams 0 (serve-only) requires -http"))
	}

	gen := data.NewGenerator(2024)
	if *doTrain {
		fmt.Printf("robust-training %s (repro scale)...\n", m.Name)
		train.Train(m, gen, train.Config{Regime: train.Robust, Epochs: 4, TrainSize: 1536, Seed: 1, Quiet: true})
	}

	reg := telemetry.NewRegistry()
	reg.GaugeFunc("edgetta_pool_workers", func() float64 { return float64(parallel.Workers()) })
	cfg.Registry = reg
	srv := serve.New(cfg)
	defer srv.Close()

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wire API + observability: http://%s/v1/streams /metrics /debug/streams /debug/trace\n", ln.Addr())
		go http.Serve(ln, buildMux(reg, srv, httpapi.Config{Timeout: *timeout}))
	}

	var workloadTrace *telemetry.Tracer
	if *traceOut != "" {
		if workloadTrace = telemetry.StartTracing(); workloadTrace == nil {
			fatal(fmt.Errorf("a trace is already being collected (EDGETTA_TRACE=1?)"))
		}
	}
	key, err := srv.AddGroup(m, algo, core.Config{}, *replicas)
	if err != nil {
		fatal(err)
	}
	snap, _ := srv.GroupSnapshot(key)
	fmt.Printf("serving %s: %d replicas (stateful=%v), pool width %d, maxbatch %d, linger %v, admission %s",
		key, snap.Replicas, snap.Stateful, parallel.Workers(), *maxBatch, *linger, *admission)
	if snap.MaxReplicas > 0 {
		fmt.Printf(", autoscale %d:%d", snap.MinReplicas, snap.MaxReplicas)
	}
	if *watchdog > 0 {
		fmt.Printf(", watchdog %v", *watchdog)
	}
	fmt.Printf("\n")
	if names := srv.CheckpointedSessions(); len(names) > 0 {
		fmt.Printf("recovery:  %d checkpointed session(s) resumable from %s\n", len(names), *recoverDir)
	}
	fmt.Printf("\n")

	if *nStreams == 0 {
		holdOpen(*hold)
		return
	}

	type streamReport struct {
		corruption data.Corruption
		errRate    float64
		stats      serve.StreamSnapshot
	}
	reports := make([]streamReport, *nStreams)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *nStreams; i++ {
		st, err := srv.OpenStream(key)
		if err != nil {
			fatal(err)
		}
		c := data.AllCorruptions[i%len(data.AllCorruptions)]
		wg.Add(1)
		go func(i int, st *serve.Stream, c data.Corruption) {
			defer wg.Done()
			s := gen.NewStream(int64(100+i), *samples, c, *severity)
			correct, seen := 0, 0
			for {
				x, labels, ok := s.Next(*batch)
				if !ok {
					break
				}
				logits, err := st.ProcessCtx(context.Background(), x)
				if err != nil {
					fatal(err)
				}
				for j, p := range logits.ArgmaxRows() {
					if p == labels[j] {
						correct++
					}
				}
				seen += len(labels)
			}
			r := streamReport{corruption: c, stats: st.Snapshot()}
			if seen > 0 {
				r.errRate = 1 - float64(correct)/float64(seen)
			}
			reports[i] = r
		}(i, st, c)
	}
	wg.Wait()
	wall := time.Since(start)

	fmt.Printf("%-3s %-18s %7s %8s %9s %9s %9s\n", "id", "corruption", "error", "batches", "p50", "p95", "p99")
	fmt.Println(strings.Repeat("-", 70))
	for i, r := range reports {
		fmt.Printf("%-3d %-18s %6.1f%% %8d %9v %9v %9v\n",
			i, r.corruption, 100*r.errRate, r.stats.Requests,
			r.stats.E2E.P50.Round(time.Microsecond),
			r.stats.E2E.P95.Round(time.Microsecond),
			r.stats.E2E.P99.Round(time.Microsecond))
	}

	snap, _ = srv.GroupSnapshot(key)
	totalImages := *nStreams * *samples
	fmt.Printf("\naggregate: %d images in %v = %.1f img/s\n",
		totalImages, wall.Round(time.Millisecond), float64(totalImages)/wall.Seconds())
	fmt.Printf("batching:  %d requests -> %d Process calls (mean %.1f img/call, max %d), peak queue %d\n",
		snap.Requests, snap.Batches, snap.MeanCoalesced, snap.MaxCoalesced, snap.MaxQueueDepth)
	if snap.Shed > 0 || snap.Canceled > 0 {
		fmt.Printf("admission: %d shed, %d canceled\n", snap.Shed, snap.Canceled)
	}
	if snap.ScaleUps > 0 || snap.ScaleDowns > 0 {
		fmt.Printf("autoscale: %d ups, %d downs, %d replicas now\n", snap.ScaleUps, snap.ScaleDowns, snap.Replicas)
	}
	fmt.Printf("service:   %s\n", snap.Service)
	fmt.Printf("e2e:       %s\n", snap.E2E)

	if workloadTrace != nil {
		telemetry.StopTracing()
		if err := workloadTrace.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:     %s (%d events, %d dropped)\n",
			*traceOut, workloadTrace.Len(), workloadTrace.Dropped())
	}
	if *hold > 0 {
		holdOpen(*hold)
	}
}

// holdOpen keeps the process (and its HTTP listener) alive: for the given
// duration, or forever when zero (serve-only mode with no -hold).
func holdOpen(d time.Duration) {
	if d > 0 {
		fmt.Printf("holding for %v (ctrl-C to exit)...\n", d)
		time.Sleep(d)
		return
	}
	fmt.Println("serving (ctrl-C to exit)...")
	select {}
}

// parseScaleRange parses the -scale "min:max" form.
func parseScaleRange(s string) (min, max int, err error) {
	if _, err := fmt.Sscanf(s, "%d:%d", &min, &max); err != nil {
		return 0, 0, fmt.Errorf("parse -scale %q (want min:max, e.g. 1:8)", s)
	}
	if min < 1 || max < min {
		return 0, 0, fmt.Errorf("-scale %q: want 1 <= min <= max", s)
	}
	return min, max, nil
}

// buildMux wires the serving wire API and the observability endpoints
// over one listener. /debug/streams is served by the wire API handler, so
// its payload is exactly the serve.Snapshot JSON shape.
func buildMux(reg *telemetry.Registry, srv *serve.Server, hcfg httpapi.Config) *http.ServeMux {
	api := httpapi.New(srv, hcfg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.MetricsHandler(reg))
	mux.Handle("/debug/trace", telemetry.TraceHandler())
	mux.Handle("/debug/streams", api)
	mux.Handle("/v1/", api)
	return mux
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ttaserve:", err)
	os.Exit(1)
}
