package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
	"edgetta/perfbench/fixture"
)

// serverProc is a running server process (see ./server).
type serverProc struct {
	cmd  *exec.Cmd
	base string
	ctl  *http.Client
}

// startServer launches the server binary and waits for its ready line.
func startServer(bin string, args ...string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	p := &serverProc{cmd: cmd, ctl: &http.Client{Timeout: 30 * time.Second}}
	ready := make(chan string, 1)
	go func() {
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		ready <- line
		// Keep draining so the server never blocks on a full pipe.
		br.WriteTo(os.Stderr)
	}()
	select {
	case line := <-ready:
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
		if !ok {
			p.kill()
			return nil, fmt.Errorf("server did not start (first line %q)", line)
		}
		p.base = "http://" + addr
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("server not ready after 60s")
	}
	return p, nil
}

// stop asks the server to quit and waits for it to exit, killing it if
// it does not within ten seconds.
func (p *serverProc) stop() error {
	if resp, err := p.ctl.Post(p.base+"/bench/quit", "", nil); err == nil {
		resp.Body.Close()
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("server did not exit; killed")
	}
}

func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

func (p *serverProc) startProfile() error {
	resp, err := p.ctl.Post(p.base+"/bench/profile", "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("start profile: %s", resp.Status)
	}
	return nil
}

// cpu reads the server process's CPU time.
func (p *serverProc) cpu() (time.Duration, error) {
	resp, err := p.ctl.Get(p.base + "/bench/cpu")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cpu: %s: %s", resp.Status, raw)
	}
	ns, err := strconv.ParseInt(string(raw), 10, 64)
	return time.Duration(ns), err
}

func (p *serverProc) report() (fixture.ServerReport, error) {
	var rep fixture.ServerReport
	resp, err := p.ctl.Get(p.base + "/bench/report")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("report: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	return rep, err
}

// groupSnapshot reads the server's only group through GET /v1/stats.
func groupSnapshot(c *httpapi.Client) (serve.GroupSnapshot, error) {
	snap, err := c.Snapshot()
	if err != nil {
		return serve.GroupSnapshot{}, err
	}
	if len(snap.Groups) != 1 {
		return serve.GroupSnapshot{}, fmt.Errorf("stats: want 1 group, got %d", len(snap.Groups))
	}
	return snap.Groups[0], nil
}

// conn is one load-generating connection: an httpapi client over its own
// single-connection transport, which tags each submit with the current
// request id and counts submit round trips (retries show as round trips
// beyond the calls made).
type conn struct {
	*httpapi.Client
	rt *taggingTransport
}

func newConn(base string, seed int64) *conn {
	rt := &taggingTransport{next: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	c := httpapi.NewClient(base, &http.Client{Transport: rt})
	c.Binary = true
	c.WithRetry(httpapi.RetryPolicy{Seed: seed})
	return &conn{Client: c, rt: rt}
}

func (c *conn) close() { c.rt.next.CloseIdleConnections() }

type taggingTransport struct {
	next       *http.Transport
	req        atomic.Int64
	roundTrips atomic.Int64
}

func (t *taggingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/submit") {
		t.roundTrips.Add(1)
		r = r.Clone(r.Context())
		r.Header.Set(fixture.ReqHeader, strconv.FormatInt(t.req.Load(), 10))
	}
	return t.next.RoundTrip(r)
}
