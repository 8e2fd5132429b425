// Command server is the benchmark's server process: a serve.Server with
// one replica group over the shipped weights, behind httpapi on loopback.
// It runs apart from the load generator so its memory and GC are its own.
// It prints "listening <addr>" once ready and serves until POST /bench/quit
// or SIGTERM.
//
// Besides the wire API it answers POST /bench/profile (start the nn layer
// profiler), GET /bench/cpu (CPU time used so far, in ns) and
// GET /bench/report (stop the profiler and return fixture.ServerReport).
// With -trace it also times every wire submit around httpapi's ServeHTTP.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/nn"
	"edgetta/internal/parallel"
	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
	"edgetta/perfbench/fixture"
)

func main() {
	dir := flag.String("dir", "perfbench", "benchmark directory holding manifest.json and weights")
	tag := flag.String("model", "WRN-AM", "model tag")
	algoName := flag.String("algo", "bnnorm", "adaptation algorithm")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in applied batches (0 = off)")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint spill directory")
	traced := flag.Bool("trace", false, "time every wire submit")
	flag.Parse()
	if err := run(*dir, *tag, *algoName, *ckptEvery, *ckptDir, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "server:", err)
		os.Exit(1)
	}
}

func run(dir, tag, algoName string, ckptEvery int, ckptDir string, traced bool) error {
	algo, err := core.ParseAlgorithm(algoName)
	if err != nil {
		return err
	}
	man, err := fixture.LoadManifest(dir)
	if err != nil {
		return err
	}
	m, err := man.LoadModel(dir, tag)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Checkpoint: serve.CheckpointConfig{Every: ckptEvery, Dir: ckptDir}})
	defer srv.Close()
	if _, err := srv.AddGroup(m, algo, core.Config{}, 0); err != nil {
		return err
	}

	rec := &recorder{}
	var api http.Handler = httpapi.New(srv, httpapi.Config{})
	if traced {
		api = rec.wrap(api)
	}
	quit := make(chan struct{})
	var quitOnce sync.Once
	mux := http.NewServeMux()
	mux.Handle("/v1/", api)
	mux.HandleFunc("POST /bench/profile", func(w http.ResponseWriter, r *http.Request) {
		if !nn.StartProfiling() {
			http.Error(w, "profiler already active", http.StatusConflict)
		}
	})
	mux.HandleFunc("GET /bench/report", func(w http.ResponseWriter, r *http.Request) {
		rep := fixture.ServerReport{
			NN:      nn.StopProfiling(),
			Workers: parallel.Workers(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Handler: rec.samples(),
		}
		var err error
		if rep.VmHWMKB, err = fixture.PeakRSSKB(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("GET /bench/cpu", func(w http.ResponseWriter, r *http.Request) {
		cpu, err := fixture.CPUTime()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, int64(cpu))
	})
	mux.HandleFunc("POST /bench/quit", func(w http.ResponseWriter, r *http.Request) {
		quitOnce.Do(func() { close(quit) })
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Printf("listening %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case <-quit:
	case <-sig:
	case err := <-served:
		return err
	}
	// Let the quit response flush before the listener goes away.
	time.Sleep(10 * time.Millisecond)
	hs.Close()
	<-served
	return nil
}

// recorder times wire submits around httpapi's ServeHTTP.
type recorder struct {
	mu  sync.Mutex
	all []fixture.HandlerSample
}

func (rc *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/submit") {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(fixture.ReqHeader), 10, 64)
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		rc.mu.Lock()
		rc.all = append(rc.all, fixture.HandlerSample{Req: req, Start: start.UnixNano(), End: end.UnixNano(),
			ReqBytes: r.ContentLength, RespBytes: cw.n})
		rc.mu.Unlock()
	})
}

func (rc *recorder) samples() []fixture.HandlerSample {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]fixture.HandlerSample(nil), rc.all...)
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}
